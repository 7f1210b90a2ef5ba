package cli

import (
	"errors"
	"flag"
	"os"
	"reflect"
	"testing"

	"spothost/internal/experiments"
	"spothost/internal/sim"
)

// parse registers f on a fresh command line and parses args as the
// command's arguments.
func parse(t *testing.T, f Flags, args ...string) *Run {
	t.Helper()
	oldCL, oldArgs := flag.CommandLine, os.Args
	t.Cleanup(func() { flag.CommandLine, os.Args = oldCL, oldArgs })
	flag.CommandLine = flag.NewFlagSet("cmd", flag.ContinueOnError)
	os.Args = append([]string{"cmd"}, args...)
	r := Register(f)
	r.Parse()
	return r
}

func TestSeeds(t *testing.T) {
	optional := Flags{Quick: true, Stride: 11}
	if got := parse(t, optional).Options().Seeds; !reflect.DeepEqual(got, experiments.Defaults().Seeds) {
		t.Errorf("-seeds 0 seeds = %v, want the defaults", got)
	}
	if got := parse(t, optional, "-quick").Options().Seeds; !reflect.DeepEqual(got, experiments.Quick().Seeds) {
		t.Errorf("-quick seeds = %v, want the quick defaults", got)
	}
	if got := parse(t, optional, "-quick", "-seeds", "2").Options().Seeds; !reflect.DeepEqual(got, []int64{11, 22}) {
		t.Errorf("-seeds 2 seeds = %v, want [11 22]", got)
	}
	if got := parse(t, Flags{Seeds: 3, Stride: 23}).Seeds(); !reflect.DeepEqual(got, []int64{23, 46, 69}) {
		t.Errorf("default required seeds = %v, want [23 46 69]", got)
	}
}

func TestOptions(t *testing.T) {
	r := parse(t, Flags{Quick: true, Stride: 11, Parallel: true, Trace: true, ObsOut: "x"},
		"-quick", "-days", "2", "-parallel", "3", "-trace", "t.json", "-obs")
	o := r.Options()
	if o.Horizon != 2*sim.Day {
		t.Errorf("horizon = %v, want 2 days", o.Horizon)
	}
	if o.Parallel != 3 || o.Context == nil {
		t.Errorf("parallel = %d, context = %v", o.Parallel, o.Context)
	}
	if r.Trace == nil || r.Obs == nil || o.Trace != r.Trace || o.Obs != r.Obs {
		t.Errorf("collectors not created and passed through unscoped")
	}

	// A positive -days default applies as an override; unregistered
	// flags leave their fields unset.
	o = parse(t, Flags{Seeds: 3, Days: 30}).Options()
	if o.Horizon != 30*sim.Day || o.Parallel != 0 || o.Trace != nil || o.Obs != nil {
		t.Errorf("horizon %v parallel %d trace %v obs %v", o.Horizon, o.Parallel, o.Trace, o.Obs)
	}
}

func TestExperimentUnknownIsUsageError(t *testing.T) {
	_, err := parse(t, Flags{Stride: 11}).Experiment("nosuch")
	var u usageError
	if !errors.As(err, &u) {
		t.Fatalf("unknown experiment error = %v, want a usage error", err)
	}
}
