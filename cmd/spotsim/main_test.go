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
		"days": "30", "format": "csv", "markets": "", "mechanism": "ckpt-lr-live",
		"pessimistic": "false", "policy": "proactive", "product": "Linux/UNIX",
		"region": "us-east-1a", "seeds": "3", "trace": "", "trace-format": "chrome",
		"traces": "", "type": "small", "v": "false", "vms": "0",
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
