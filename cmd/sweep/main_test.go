package main

import (
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sweep"
)

func TestParseValues(t *testing.T) {
	got, err := parseValues("1.5, 2,3", "bid")
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{1.5, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parseValues = %v, want %v", got, want)
	}

	// Empty -values falls back to per-knob defaults.
	for knob, want := range map[string][]float64{
		"bid":        {1.5, 2, 3, 4},
		"tau":        {1, 3, 10, 30},
		"hysteresis": {0, 0.05, 0.15, 0.4},
		"lambda":     {0, 0.5, 1, 2},
	} {
		got, err := parseValues("", knob)
		if err != nil {
			t.Fatalf("%s: %v", knob, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s defaults = %v, want %v", knob, got, want)
		}
	}
	if _, err := parseValues("", "warp"); err == nil {
		t.Error("parseValues accepted an unknown knob with no values")
	}
	if _, err := parseValues("1,two", "bid"); err == nil {
		t.Error("parseValues accepted a non-numeric value")
	}
}

func TestBuildConfig(t *testing.T) {
	home := market.ID{Region: "us-east-1a", Type: "small"}
	buildConfig := func(knob string, v float64, home market.ID, fleet int) (sched.Config, error) {
		return sweep.BuildConfig(home, fleet, []sweep.Setting{{Knob: knob, Value: v}})
	}

	cfg, err := buildConfig("bid", 2.5, home, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BidMultiple != 2.5 || len(cfg.Markets) != 1 || cfg.Markets[0] != home {
		t.Fatalf("bid config: %+v", cfg)
	}

	cfg, err = buildConfig("tau", 10, home, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.VMParams.CheckpointBound != 10 {
		t.Fatalf("tau not applied: %+v", cfg.VMParams)
	}

	// hysteresis/lambda switch to the multi-market fleet; -vms overrides
	// the default fleet of 4.
	cfg, err = buildConfig("hysteresis", 0.15, home, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hysteresis != 0.15 || cfg.Service.Count != 4 || len(cfg.Markets) != len(market.DefaultTypes()) {
		t.Fatalf("hysteresis config: %+v", cfg)
	}
	cfg, err = buildConfig("lambda", 1, home, 6)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StabilityPenalty != 1 || cfg.Service.Count != 6 {
		t.Fatalf("lambda config: %+v", cfg)
	}
	if cfg.Bidding != sched.Proactive {
		t.Fatalf("bidding = %v, want proactive", cfg.Bidding)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("built config does not validate: %v", err)
	}

	if _, err := buildConfig("warp", 1, home, 0); err == nil {
		t.Error("buildConfig accepted an unknown knob")
	}
	if _, err := buildConfig("bid", 1, home, 0); err == nil {
		t.Error("buildConfig accepted BidMultiple=1 (proactive needs >1)")
	}
}

func TestRunGridCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	var out strings.Builder
	err := runGrid(context.Background(), &out, gridOpts{
		Grid:      "bid=2,4,5",
		Region:    "us-east-1a",
		Type:      "small",
		Days:      2,
		Seeds:     []int64{23},
		WarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want header + 3 rows:\n%s", len(lines), out.String())
	}
	wantHeader := "bid,normalized_cost,unavailability,forced_per_hr,voluntary_per_hr,migrations,seeds,pilot,fork_at,pruned,dominated_by"
	if lines[0] != wantHeader {
		t.Fatalf("header = %q, want %q", lines[0], wantHeader)
	}
	for i, row := range lines[1:] {
		fields := strings.Split(row, ",")
		if len(fields) != 11 {
			t.Fatalf("row %d has %d fields: %q", i, len(fields), row)
		}
		// No forking requested: fork_at stays empty on every row.
		if fields[8] != "" {
			t.Fatalf("row %d has fork_at without -fork: %q", i, row)
		}
		if fields[9] != "false" || fields[10] != "" {
			t.Fatalf("row %d unexpectedly pruned: %q", i, row)
		}
	}

	// Grid parse errors surface instead of printing anything.
	if err := runGrid(context.Background(), &out, gridOpts{Grid: "warp=1", Seeds: []int64{23}}); err == nil {
		t.Fatal("runGrid accepted an unknown knob")
	}
}

// TestExperimentTraceAndObsTogether: in -experiment mode, -trace and -obs
// compose on one invocation — both export files appear, and the telemetry
// prefix comes from -obs-out. Exec-level so the flag wiring itself is
// under test.
func TestExperimentTraceAndObsTogether(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := filepath.Join(t.TempDir(), "sweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.json")
	obsPrefix := filepath.Join(dir, "run")

	cmd := exec.Command(bin, "-experiment", "fleet", "-seeds", "1", "-days", "2",
		"-trace", tracePath, "-obs", "-obs-out", obsPrefix)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("sweep -experiment fleet -trace -obs: %v\n%s", err, out)
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Errorf("trace file missing: %v", err)
	}
	cb, err := os.ReadFile(obsPrefix + "-timeline.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(cb), ",cost_dollars,") {
		t.Fatalf("timeline CSV missing cost series:\n%.500s", cb)
	}
	lb, err := os.ReadFile(obsPrefix + "-ledger.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(lb), `"action":"spot"`) {
		t.Fatalf("ledger has no spot decisions:\n%.500s", lb)
	}

	// Knob mode has no fleet cells: -obs is refused with a warning, not a
	// silent empty export.
	warn := exec.Command(bin, "-knob", "bid", "-values", "2", "-days", "1", "-seeds", "1", "-obs")
	out, err := warn.CombinedOutput()
	if err != nil {
		t.Fatalf("knob sweep with -obs failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "-obs applies to -experiment runs only") {
		t.Fatalf("missing -obs warning in knob mode:\n%s", out)
	}

	// Grid cells carry no recorders: -trace is refused with a warning and
	// writes no file.
	gridTrace := filepath.Join(dir, "grid.json")
	warn = exec.Command(bin, "-grid", "bid=2,4", "-days", "1", "-seeds", "1", "-trace", gridTrace)
	out, err = warn.CombinedOutput()
	if err != nil {
		t.Fatalf("grid sweep with -trace failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "-trace applies to knob and -experiment runs only") {
		t.Fatalf("missing -trace warning in grid mode:\n%s", out)
	}
	if _, err := os.Stat(gridTrace); !os.IsNotExist(err) {
		t.Fatalf("grid mode wrote a trace file (stat: %v)", err)
	}
}

// TestFlagSurface pins every flag's name and default.
func TestFlagSurface(t *testing.T) {
	want := map[string]string{
		"days": "30", "experiment": "", "fork": "false", "grid": "", "knob": "bid",
		"obs": "false", "obs-out": "sweep-obs", "parallel": "0", "progress": "false",
		"prune": "false", "region": "us-east-1a", "seeds": "3", "trace": "",
		"trace-format": "chrome", "type": "small", "values": "", "vms": "0",
		"warm-start": "false",
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
