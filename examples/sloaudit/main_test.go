package main

import (
	"flag"
	"io"
	"os"
	"testing"
)

const golden = "testdata/output.txt"

var update = flag.Bool("update", false, "rewrite "+golden+" from this run")

// TestOutput runs the audit and compares its stdout with the committed
// golden byte for byte.
func TestOutput(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	got := <-out
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./examples/sloaudit -update`): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("stdout differs from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
