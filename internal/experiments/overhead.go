package experiments

import (
	"fmt"

	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sched"
	"spothost/internal/tpcw"
	"spothost/internal/vm"
)

// Table4Result reproduces Table 4: network and disk I/O throughput of
// nested VMs versus native Amazon VMs.
type Table4Result struct {
	Native tpcw.IOMicrobench
	Nested tpcw.IOMicrobench
	// DegradationPct is [net tx, net rx, disk read, disk write].
	DegradationPct [4]float64
}

// Table4 measures the micro-benchmarks under both virtualization modes.
func Table4(opts Options) (Table4Result, error) {
	opts = opts.normalize()
	base := tpcw.NativeBaselines()
	res := Table4Result{
		Native: tpcw.MeasureIO(base, vm.NativeOverhead(), 0.01, opts.Seeds[0]),
		Nested: tpcw.MeasureIO(base, vm.DefaultOverhead(), 0.01, opts.Seeds[0]+1),
	}
	res.DegradationPct = tpcw.DegradationPercent(res.Native, res.Nested)
	return res, nil
}

// Render prints Table 4.
func (r Table4Result) Render() string {
	row := func(name string, nat, nst, deg float64) []string {
		return []string{name, fmt.Sprintf("%.1f", nat), fmt.Sprintf("%.1f", nst),
			fmt.Sprintf("%.1f%%", deg)}
	}
	rows := [][]string{
		row("Network TX", r.Native.NetworkTx, r.Nested.NetworkTx, r.DegradationPct[0]),
		row("Network RX", r.Native.NetworkRx, r.Nested.NetworkRx, r.DegradationPct[1]),
		row("Disk Read", r.Native.DiskRead, r.Nested.DiskRead, r.DegradationPct[2]),
		row("Disk Write", r.Native.DiskWrite, r.Nested.DiskWrite, r.DegradationPct[3]),
	}
	return renderTable("Table 4: nested vs native I/O throughput",
		[]string{"benchmark", "Amazon VM (Mbps)", "Nested VM (Mbps)", "degradation"}, rows)
}

// Figure12Point is one load level of a Fig. 12 curve.
type Figure12Point struct {
	EBs      int
	NativeMs float64
	NestedMs float64
}

// Figure12Result reproduces Fig. 12: TPC-W mean response time vs number of
// emulated browsers, native vs nested, for both workload configurations.
type Figure12Result struct {
	WithImages []Figure12Point // Fig. 12(a): I/O-bound
	NoImages   []Figure12Point // Fig. 12(b): CPU-bound
}

// Figure12 sweeps the EB counts the paper plots (100..400).
func Figure12(opts Options) (Figure12Result, error) {
	opts = opts.normalize()
	loads := []int{100, 150, 200, 250, 300, 350, 400}
	var res Figure12Result
	for _, withImages := range []bool{true, false} {
		for _, ebs := range loads {
			nat, err := tpcw.Run(tpcw.DefaultConfig(ebs, withImages, false, opts.Seeds[0]))
			if err != nil {
				return res, err
			}
			nst, err := tpcw.Run(tpcw.DefaultConfig(ebs, withImages, true, opts.Seeds[0]))
			if err != nil {
				return res, err
			}
			p := Figure12Point{EBs: ebs, NativeMs: nat.MeanResponseMs, NestedMs: nst.MeanResponseMs}
			if withImages {
				res.WithImages = append(res.WithImages, p)
			} else {
				res.NoImages = append(res.NoImages, p)
			}
		}
	}
	return res, nil
}

// Render prints both Fig. 12 panels.
func (r Figure12Result) Render() string {
	render := func(title string, pts []Figure12Point) string {
		var rows [][]string
		for _, p := range pts {
			ratio := 0.0
			if p.NativeMs > 0 {
				ratio = p.NestedMs / p.NativeMs
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", p.EBs),
				fmt.Sprintf("%.0f", p.NativeMs),
				fmt.Sprintf("%.0f", p.NestedMs),
				fmt.Sprintf("%.2fx", ratio),
			})
		}
		return renderTable(title,
			[]string{"EBs", "Amazon VM (ms)", "Nested VM (ms)", "nested/native"}, rows)
	}
	return render("Figure 12(a): TPC-W response time, browsers fetch images (I/O-bound)", r.WithImages) +
		"\n" +
		render("Figure 12(b): TPC-W response time, images served by CDN (CPU-bound)", r.NoImages)
}

// Section6Result quantifies the Sec. 6 conclusion: the worst-case nested
// CPU overhead halves effective capacity, shrinking the paper's 17-33 %
// normalized cost to a worst case of roughly double.
type Section6Result struct {
	// NormalizedCost is the measured proactive single-market cost.
	NormalizedCost float64
	// CapacityFactor is the nested VM's effective capacity for a fully
	// CPU-bound workload (1/1.5).
	CapacityFactor float64
	// WorstCaseCost is the normalized cost after over-provisioning for
	// the overhead.
	WorstCaseCost float64
}

// Section6 derives the worst-case cost from a proactive run and the
// overhead model.
func Section6(opts Options) (Section6Result, error) {
	opts = opts.normalize()
	home := market.ID{Region: figureRegion, Type: "small"}
	cfg, err := singleMarketConfig(home, sched.Proactive, vm.CKPTLazyLive)
	if err != nil {
		return Section6Result{}, err
	}
	reps, err := sched.RunSeedsTracedCtx(opts.Context, opts.marketConfig(), []sched.Config{cfg}, nil,
		opts.Horizon, opts.Seeds, opts.Parallel, opts.Trace)
	if err != nil {
		return Section6Result{}, err
	}
	r := metrics.Average(reps[0])
	f := vm.DefaultOverhead().EffectiveCapacityFactor(1)
	return Section6Result{
		NormalizedCost: r.NormalizedCost(),
		CapacityFactor: f,
		WorstCaseCost:  r.NormalizedCost() / f,
	}, nil
}

// Render prints the Sec. 6 summary.
func (r Section6Result) Render() string {
	rows := [][]string{
		{"measured proactive cost", pct(r.NormalizedCost, 1)},
		{"worst-case CPU capacity factor", fmt.Sprintf("%.2f", r.CapacityFactor)},
		{"worst-case normalized cost", pct(r.WorstCaseCost, 1)},
		{"worst-case savings", pct(1-r.WorstCaseCost, 1)},
	}
	return renderTable("Section 6: impact of nested-VM CPU overhead on cost savings",
		[]string{"quantity", "value"}, rows)
}
