package vm_test

import (
	"fmt"

	"spothost/internal/vm"
)

// ExampleLiveMigrationTimeline models pre-copy convergence for the paper's
// 2 GB benchmark VM.
func ExampleLiveMigrationTimeline() {
	spec := vm.Spec{MemoryGB: 2, DirtyRateMBps: 2, DiskGB: 1, Units: 1}
	p := vm.DefaultParams()
	tl := vm.LiveMigrationTimeline(spec, vm.LiveBandwidthMBps, p)
	fmt.Printf("duration~60s=%v sub-second-downtime=%v rounds>1=%v\n",
		tl.Duration > 55 && tl.Duration < 66, tl.Downtime < 1, tl.Rounds > 1)
	// Output:
	// duration~60s=true sub-second-downtime=true rounds>1=true
}
