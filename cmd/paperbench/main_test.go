package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// golden is the committed full default output, the paper report that
// EXPERIMENTS.md quotes.
const golden = "../../paperbench_output.txt"

var update = flag.Bool("update", false, "rewrite "+golden+" from this run")

// runMainEnv makes the test binary run the command itself instead of its
// tests, so TestGolden sees the command's real stdout.
const runMainEnv = "PAPERBENCH_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagSurface pins every flag's name and default.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"csv": "", "days": "0", "list": "false", "only": "", "parallel": "0",
		"quick": "false", "seeds": "0", "trace": "", "trace-format": "chrome",
	}
	got := map[string]string{}
	flag.VisitAll(func(f *flag.Flag) {
		// update belongs to this test binary, not to the command.
		if !strings.HasPrefix(f.Name, "test.") && f.Name != "update" {
			got[f.Name] = f.DefValue
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flags = %v\nwant %v", got, want)
	}
}

// TestGolden runs the command with no flags, every experiment at full
// fidelity, and compares its stdout with the committed report byte for
// byte. `go test ./cmd/paperbench -run TestGolden -update` rewrites the
// report.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at full fidelity")
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("paperbench: %v\n%s", err, stderr.Bytes())
	}
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("stdout differs from %s at line %d\ngot:  %q\nwant: %q\n(rerun with -update to accept)", golden, i+1, g, w)
			}
		}
	}
}
