package experiments

import (
	"fmt"
	"sort"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
	"spothost/internal/stats"
	"spothost/internal/vm"
)

// Table1Result reproduces Table 1: mean instance start-up times by region
// and purchase model, measured by exercising the provider.
type Table1Result struct {
	// Rows maps region class -> [on-demand mean, spot mean] in seconds.
	Regions  []string
	OnDemand map[string]float64
	Spot     map[string]float64
	Samples  int
}

// Table1 requests batches of instances in a flat-price universe and
// measures request-to-running latency.
func Table1(opts Options) (Table1Result, error) {
	opts = opts.normalize()
	const samples = 80

	regions := []market.Region{"us-east-1a", "us-west-1a", "eu-west-1a"}
	var traces []*market.Trace
	onDemand := map[market.ID]float64{}
	for _, r := range regions {
		id := market.ID{Region: r, Type: "small"}
		tr, err := market.NewTrace(id, []market.Point{{T: 0, Price: 0.01}}, 10*sim.Day)
		if err != nil {
			return Table1Result{}, err
		}
		traces = append(traces, tr)
		onDemand[id] = 0.06
	}
	set, err := market.NewSet(traces, onDemand)
	if err != nil {
		return Table1Result{}, err
	}

	res := Table1Result{
		OnDemand: map[string]float64{},
		Spot:     map[string]float64{},
		Samples:  samples,
	}
	for _, seedBase := range opts.Seeds[:1] {
		eng := sim.NewEngine()
		prov := cloud.NewProvider(eng, set, cloud.DefaultParams(seedBase))
		type acc struct{ od, spot stats.Welford }
		accs := map[string]*acc{}
		for _, r := range regions {
			cls := cloud.StartupClass(r)
			accs[cls] = &acc{}
			id := market.ID{Region: r, Type: "small"}
			for i := 0; i < samples; i++ {
				// Stagger requests so they don't all bill forever.
				at := sim.Time(i) * 20
				eng.Schedule(at, func() {
					reqAt := eng.Now()
					in, err := prov.RequestOnDemand(id, cloud.Callbacks{
						OnRunning: func(in *cloud.Instance) {
							accs[cls].od.Add(eng.Now() - reqAt)
							_ = prov.Terminate(in)
						},
					})
					_ = in
					if err != nil {
						panic(err)
					}
					reqAt2 := eng.Now()
					_, err = prov.RequestSpot(id, 0.06, cloud.Callbacks{
						OnRunning: func(in *cloud.Instance) {
							accs[cls].spot.Add(eng.Now() - reqAt2)
							_ = prov.Terminate(in)
						},
					})
					if err != nil {
						panic(err)
					}
				})
			}
		}
		if err := eng.RunUntilCtx(opts.Context, 5*sim.Day); err != nil {
			return Table1Result{}, err
		}
		for cls, a := range accs {
			res.OnDemand[cls] = a.od.Mean()
			res.Spot[cls] = a.spot.Mean()
		}
	}
	for cls := range res.OnDemand {
		res.Regions = append(res.Regions, cls)
	}
	sort.Strings(res.Regions)
	return res, nil
}

// Render prints Table 1.
func (r Table1Result) Render() string {
	rows := [][]string{
		{"On-demand"}, {"Spot"},
	}
	header := []string{"Instance type"}
	for _, reg := range r.Regions {
		header = append(header, reg+" (s)")
		rows[0] = append(rows[0], fmt.Sprintf("%.2f", r.OnDemand[reg]))
		rows[1] = append(rows[1], fmt.Sprintf("%.2f", r.Spot[reg]))
	}
	return renderTable(fmt.Sprintf("Table 1: mean start-up time (%d samples/cell)", r.Samples),
		header, rows)
}

// Table2Result reproduces Table 2: migration mechanism overheads for a
// 2 GB VM, intra- and cross-region.
type Table2Result struct {
	// Intra-region rows: live migration duration and checkpoint seconds
	// per GB, per region.
	IntraRegions []market.Region
	LiveIntra    map[market.Region]float64
	CkptPerGB    float64
	// Cross-region rows: live migration duration and disk copy seconds
	// per GB, per pair.
	Pairs     [][2]market.Region
	LiveCross map[string]float64
	DiskPerGB map[string]float64
}

// Table2 evaluates the calibrated mechanism models on the paper's 2 GB
// benchmark VM.
func Table2(opts Options) (Table2Result, error) {
	opts = opts.normalize()
	// The paper's measurement VM: 2 GB of RAM, near idle.
	spec := vm.Spec{MemoryGB: 2, DirtyRateMBps: 2, DiskGB: 1, Units: 1}
	p := vm.DefaultParams()

	res := Table2Result{
		IntraRegions: []market.Region{"us-east-1a", "us-west-1a", "eu-west-1a"},
		LiveIntra:    map[market.Region]float64{},
		LiveCross:    map[string]float64{},
		DiskPerGB:    map[string]float64{},
		CkptPerGB:    p.FullCheckpointTime(vm.Spec{MemoryGB: 1, Units: 1}),
	}
	for _, r := range res.IntraRegions {
		res.LiveIntra[r] = vm.LiveMigrationTimeline(spec, vm.LiveBandwidthMBps, p).Duration
	}
	res.Pairs = [][2]market.Region{
		{"us-east-1a", "us-west-1a"},
		{"us-east-1a", "eu-west-1a"},
		{"us-west-1a", "eu-west-1a"},
	}
	for _, pr := range res.Pairs {
		link := vm.Link(pr[0], pr[1])
		key := vm.WANKey(pr[0], pr[1])
		res.LiveCross[key] = vm.LiveMigrationTimeline(spec, link.LiveBandwidthMBps, p).Duration
		res.DiskPerGB[key] = 1024 / link.DiskCopyMBps
	}
	return res, nil
}

// Render prints Table 2.
func (r Table2Result) Render() string {
	var rows [][]string
	for _, reg := range r.IntraRegions {
		rows = append(rows, []string{
			"Inside " + string(market.RegionClass(reg)),
			fmt.Sprintf("%.1f", r.LiveIntra[reg]),
			fmt.Sprintf("%.1f", r.CkptPerGB),
			"-",
		})
	}
	for _, pr := range r.Pairs {
		key := vm.WANKey(pr[0], pr[1])
		rows = append(rows, []string{
			fmt.Sprintf("%s to %s", market.RegionClass(pr[0]), market.RegionClass(pr[1])),
			fmt.Sprintf("%.1f", r.LiveCross[key]),
			"-",
			fmt.Sprintf("%.1f", r.DiskPerGB[key]),
		})
	}
	return renderTable("Table 2: migration mechanism overheads (2 GB VM)",
		[]string{"path", "live migrate (s)", "checkpoint (s/GB)", "disk copy (s/GB)"}, rows)
}
