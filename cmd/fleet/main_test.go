package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"
)

// buildFleet compiles the fleet command into a temp dir and returns the
// binary path. Exec-level tests need the real signal handling and exit
// codes, which in-process tests cannot observe.
func buildFleet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fleet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagSurface pins every flag's name and default.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"anchor": "small", "catalog": "", "csv": "", "days": "0", "json": "false",
		"obs": "false", "obs-out": "fleet-obs", "parallel": "0", "quick": "false",
		"seeds": "0", "trace": "", "trace-format": "chrome",
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

// TestTraceAndObsTogether: -trace and -obs are independent switches and
// must compose on one run — both export files appear and are well-formed.
func TestTraceAndObsTogether(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildFleet(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.json")
	obsPrefix := filepath.Join(dir, "run")

	cmd := exec.Command(bin, "-quick", "-seeds", "1", "-days", "2",
		"-trace", tracePath, "-obs", "-obs-out", obsPrefix)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("fleet -trace -obs: %v\n%s", err, out)
	}

	// The trace file is a Chrome trace_event JSON array with real events.
	tb, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []json.RawMessage
	if err := json.Unmarshal(tb, &events); err != nil || len(events) == 0 {
		t.Fatalf("trace file not a trace_event array (%v, %d events)", err, len(events))
	}

	// The timeline CSV has the schema header and the core cost series.
	cb, err := os.ReadFile(obsPrefix + "-timeline.csv")
	if err != nil {
		t.Fatal(err)
	}
	csv := string(cb)
	if !strings.HasPrefix(csv, "label,series,kind,t0_seconds,width_seconds,value\n") {
		t.Fatalf("timeline CSV header wrong:\n%.200s", csv)
	}
	if !strings.Contains(csv, ",cost_dollars,") {
		t.Fatalf("timeline CSV missing cost series:\n%.500s", csv)
	}

	// Every ledger line is a schema-stamped decision record.
	lf, err := os.Open(obsPrefix + "-ledger.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	lines := 0
	sc := bufio.NewScanner(lf)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var d struct {
			Schema int    `json:"schema"`
			Action string `json:"action"`
		}
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil || d.Schema == 0 || d.Action == "" {
			t.Fatalf("bad ledger line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("ledger is empty for a run that launched instances")
	}
}

// TestInterruptExit130: Ctrl-C mid-run must exit 130 — including with the
// telemetry collectors attached, whose export paths run after the
// cancelled experiment returns.
func TestInterruptExit130(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildFleet(t)
	dir := t.TempDir()

	cmd := exec.Command(bin, "-seeds", "8", "-days", "365",
		"-trace", filepath.Join(dir, "run.json"),
		"-obs", "-obs-out", filepath.Join(dir, "run"))
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Give the process time to install its signal handler and enter the
	// grid before interrupting it.
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatal("fleet finished a 365-day 8-seed grid before the interrupt; make the run heavier")
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 130 {
		t.Fatalf("exit after SIGINT = %v, want code 130", err)
	}
}
