package sched

import (
	"testing"

	"spothost/internal/sim"
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
		s.openEpoch(vm.NewDaemon(s.cfg.Service.VM, p, start))
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
