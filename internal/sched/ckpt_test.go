package sched

import (
	"context"
	"math"
	"testing"

	"spothost/internal/cloud"
	"spothost/internal/metrics"
	"spothost/internal/sim"
	"spothost/internal/trace"
	"spothost/internal/vm"
)

// TestCheckpointFoldTieOrder: two daemons sharing an engine whose writes
// complete at the same instant fold in the order the engine would fire
// them as events — by posting order — not in the order their schedulers
// happen to sit in the clock. The 2 GB daemon starts at 0 and the 1 GB
// daemon at 32 s; at 32 MB/s both full writes complete at 64 s, and the
// 2 GB daemon's was posted first.
func TestCheckpointFoldTieOrder(t *testing.T) {
	p := vm.DefaultParams()
	p.CheckpointWriteMBps = 32
	clock := &ckptClock{}
	open := func(gb float64, start sim.Time) *Scheduler {
		s := &Scheduler{eng: sim.NewEngine(), ckptClock: clock}
		s.cfg.Service = ServiceSpec{VM: vm.Spec{MemoryGB: gb, Units: 1}, Count: 1}
		s.cfg.VMParams = p
		s.openEpoch(vm.NewDaemon(s.cfg.Service.VM, p, start), start)
		return s
	}
	early := open(2, 0)
	late := open(1, 32)
	// The clock lists the late daemon first, so only the posting order
	// can put the early daemon's write ahead of it.
	clock.open[0], clock.open[1] = late, early

	clock.foldThrough(64)
	if early.ckptWrittenMB != 2048 || late.ckptWrittenMB != 1024 {
		t.Fatalf("folded %v and %v MB, want both full images", early.ckptWrittenMB, late.ckptWrittenMB)
	}
	// Each fired event posts its successor at once, so the write that
	// fired first holds the earlier posting number.
	if early.ckptSeq > late.ckptSeq {
		t.Fatal("the later-posted write folded first")
	}
}

// TestRecorderDoesNotChangeFold: attaching a recorder only adds the
// checkpoint histogram's observations; the checkpoint I/O a run folds is
// the same bit for bit with and without one. It covers every mechanism,
// four checkpoint bounds and three bidding policies on both market
// shapes, then a portfolio whose two same-spec members' writes tie and
// whose third member leaves mid-run.
func TestRecorderDoesNotChangeFold(t *testing.T) {
	ctx := context.Background()
	const seed = 23
	set := digestUniverse(t, seed)
	mechanisms := []vm.Mechanism{vm.Naive, vm.CKPT, vm.CKPTLazy, vm.CKPTLive, vm.CKPTLazyLive}
	for _, mech := range mechanisms {
		for _, tau := range []sim.Duration{1, 3, 7.5, 40} {
			for _, bidding := range []Bidding{Proactive, Reactive, PureSpot} {
				single := mustConfig(t)
				single.Bidding = bidding
				for _, cfg := range []Config{single, multiConfig(t, bidding, 0)} {
					cfg.Mechanism = mech
					cfg.VMParams.CheckpointBound = tau
					plain, err := RunCtx(ctx, set, cloud.DefaultParams(seed), cfg, 30*sim.Day)
					if err != nil {
						t.Fatal(err)
					}
					traced, err := RunTracedCtx(ctx, set, cloud.DefaultParams(seed), cfg, 30*sim.Day, trace.NewRecorder("run"))
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(plain.CheckpointGB) != math.Float64bits(traced.CheckpointGB) {
						t.Fatalf("%v tau=%v %v markets=%d: %v GB untraced, %v GB traced",
							mech, tau, bidding, len(cfg.Markets), plain.CheckpointGB, traced.CheckpointGB)
					}
				}
			}
		}
	}

	portfolio := func(rec *trace.Recorder) map[string]metrics.Report {
		p := NewPortfolio(set, fixedCloudParams())
		p.SetRecorder(rec)
		twin := mustConfig(t)
		twin.VMParams.CheckpointBound = 3
		leaver := multiConfig(t, Reactive, 0)
		leaver.Mechanism = vm.CKPTLive
		for _, err := range []error{
			p.AddAt(0, "twin-a", twin),
			p.AddAt(0, "twin-b", twin),
			p.AddAt(2*sim.Day+311.25, "leaver", leaver),
			p.StopAt(11*sim.Day+4321.5, "leaver"),
			p.RunCtx(context.Background(), 30*sim.Day),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
		return p.Reports()
	}
	plain, traced := portfolio(nil), portfolio(trace.NewRecorder("run"))
	for name, rep := range plain {
		if rep.CheckpointGB == 0 {
			t.Fatalf("portfolio member %s wrote no checkpoints", name)
		}
		if got := traced[name].CheckpointGB; math.Float64bits(rep.CheckpointGB) != math.Float64bits(got) {
			t.Fatalf("portfolio member %s: %v GB untraced, %v GB traced", name, rep.CheckpointGB, got)
		}
	}
}
