package cli_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// The commands that take their run flags from this package, exec-tested
// for the contract the package owns: byte-identical stdout and exports,
// exit status 2 for usage errors, 130 after SIGINT.
var commands = []string{"paperbench", "fleet", "sweep", "spotsim"}

// binDir holds the commands, built once by TestMain.
var binDir string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		flag.Parse()
		if testing.Short() {
			return m.Run()
		}
		dir, err := os.MkdirTemp("", "cli-exec")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		args := []string{"build", "-o", dir + string(filepath.Separator)}
		for _, c := range commands {
			args = append(args, "spothost/cmd/"+c)
		}
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
			return 1
		}
		binDir = dir
		return m.Run()
	}())
}

func command(t *testing.T, name string, args ...string) *exec.Cmd {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the real binaries")
	}
	return exec.Command(filepath.Join(binDir, name), args...)
}

// TestGolden runs each command in a fresh directory. Its stdout must
// equal testdata/<name>.stdout, and the files it writes must match
// testdata/<name>.sha256 byte for byte: that file is what `sha256sum *`
// prints in the run's directory, and is empty when the run writes none.
// The goldens pin the trace run labels too: scoped by experiment name in
// paperbench and sweep -experiment, unscoped in fleet and knob sweeps.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"paperbench-figure6-trace", []string{"-quick", "-only", "figure6", "-seeds", "1", "-trace", "t.json"}},
		{"fleet-quick-json-trace-obs", []string{"-quick", "-seeds", "1", "-days", "2", "-json", "-trace", "t.json", "-obs", "-obs-out", "o"}},
		{"sweep-knob-trace", []string{"-knob", "bid", "-values", "2,3", "-days", "2", "-seeds", "2", "-trace", "t.json"}},
		{"sweep-grid-fork-prune", []string{"-grid", "bid=2,4;tau=3,30", "-days", "2", "-seeds", "1", "-warm-start", "-fork", "-prune"}},
		{"sweep-experiment-fleet-trace-obs", []string{"-experiment", "fleet", "-seeds", "1", "-days", "2", "-trace", "t.json", "-obs", "-obs-out", "o"}},
		{"spotsim-seeds2-trace", []string{"-days", "2", "-seeds", "2", "-trace", "t.json"}},
	} {
		cmd := command(t, strings.Split(tc.name, "-")[0], tc.args...)
		cmd.Dir = t.TempDir()
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s: %v\n%s", tc.name, err, stderr.Bytes())
		}
		entries, err := os.ReadDir(cmd.Dir)
		if err != nil {
			t.Fatal(err)
		}
		var sums strings.Builder
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(cmd.Dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(b), e.Name())
		}
		for ext, got := range map[string]string{".stdout": string(stdout), ".sha256": sums.String()} {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+ext))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s%s differs from the golden\n--- got ---\n%s\n--- want ---\n%s", tc.name, ext, got, want)
			}
		}
	}
}

// TestUsageExit2: a bad -seeds, an unknown experiment and an unknown
// catalog or anchor are usage errors. A zero seed count used to panic in
// sweep's knob mode.
func TestUsageExit2(t *testing.T) {
	for _, args := range [][]string{
		{"paperbench", "-only", "nosuch"},
		{"paperbench", "-seeds", "17"},
		{"paperbench", "-seeds", "-1"},
		{"fleet", "-seeds", "17"},
		{"fleet", "-catalog", "bogus"},
		{"fleet", "-catalog", "default", "-anchor", "mega"},
		{"sweep", "-knob", "bid", "-values", "2", "-seeds", "0", "-days", "1"},
		{"sweep", "-grid", "bid=2,4", "-seeds", "0", "-days", "1"},
		{"sweep", "-experiment", "fleet", "-seeds", "-1", "-days", "1"},
		{"sweep", "-experiment", "nosuch"},
		{"spotsim", "-seeds", "0"},
	} {
		cmd := command(t, args[0], args[1:]...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		var ee *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &ee) || ee.ExitCode() != 2 || strings.Contains(stderr.String(), "panic:") {
			t.Errorf("%v: %v, want exit status 2 without a panic\n%s", args, err, stderr.Bytes())
		}
	}
}

// TestInterruptExit130: Ctrl-C mid-run exits 130. cmd/fleet tests its
// own interrupt with the telemetry collectors attached.
func TestInterruptExit130(t *testing.T) {
	for _, name := range []string{"paperbench", "spotsim"} {
		cmd := command(t, name, "-seeds", "8", "-days", "365")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Give the process time to install its signal handler and start
		// simulating before interrupting it.
		time.Sleep(500 * time.Millisecond)
		if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
			t.Fatal(err)
		}
		var ee *exec.ExitError
		if err := cmd.Wait(); !errors.As(err, &ee) || ee.ExitCode() != 130 {
			t.Errorf("%s: exit after SIGINT = %v, want code 130", name, err)
		}
	}
}

func TestSpotsimOneSeedAverage(t *testing.T) {
	out, err := command(t, "spotsim", "-days", "1", "-seeds", "1").Output()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(out), "=== average over 1 run(s) ===\npolicy=proactive") {
		t.Fatalf("no average block:\n%s", out)
	}
}
