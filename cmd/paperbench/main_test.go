package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"
)

// TestFlagSurface pins every flag's name and default.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"csv": "", "days": "0", "list": "false", "only": "", "parallel": "0",
		"quick": "false", "seeds": "0", "trace": "", "trace-format": "chrome",
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			got[f.Name] = f.DefValue
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v\nwant %v", got, want)
	}
}
