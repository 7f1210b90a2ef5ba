package experiments

import (
	"fmt"
	"strings"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sim"
)

// Figure1Result reproduces Fig. 1: month-long spot price traces for a
// small and a large server in us-east, summarized statistically and as a
// downsampled series.
type Figure1Result struct {
	Summaries []market.TraceSummary
	// Series holds daily mean/max price points per market for plotting.
	Series map[market.ID][]DailyPrice
}

// DailyPrice is one plotted day of a trace.
type DailyPrice struct {
	Day  int
	Mean float64
	Max  float64
}

// Figure1 generates the traces and computes the Fig. 1 views.
func Figure1(opts Options) (Figure1Result, error) {
	opts = opts.normalize()
	set, _, err := cloud.Seeded(opts.Market, opts.Cloud, opts.Seeds[0])
	if err != nil {
		return Figure1Result{}, err
	}
	res := Figure1Result{Series: map[market.ID][]DailyPrice{}}
	for _, ty := range []market.InstanceType{"small", "large"} {
		id := market.ID{Region: opts.Region, Type: ty}
		if set.Trace(id) == nil {
			return Figure1Result{}, fmt.Errorf("experiments: market %s missing", id)
		}
		res.Summaries = append(res.Summaries, market.Summarize(set, id))
		tr := set.Trace(id)
		days := int(tr.End() / sim.Day)
		for d := 0; d < days; d++ {
			lo, hi := sim.Time(d)*sim.Day, sim.Time(d+1)*sim.Day
			mx := 0.0
			for _, p := range tr.Sample(lo, hi, 10*sim.Minute) {
				if p > mx {
					mx = p
				}
			}
			res.Series[id] = append(res.Series[id], DailyPrice{
				Day:  d,
				Mean: tr.TimeWeightedMean(lo, hi),
				Max:  mx,
			})
		}
	}
	return res, nil
}

// Render prints the Fig. 1 summary table and a coarse ASCII series.
func (r Figure1Result) Render() string {
	var rows [][]string
	for _, s := range r.Summaries {
		rows = append(rows, []string{
			s.Market.String(),
			fmt.Sprintf("$%.3f", s.OnDemand),
			fmt.Sprintf("$%.4f", s.Mean),
			fmt.Sprintf("$%.4f", s.Min),
			fmt.Sprintf("$%.2f", s.Max),
			fmt.Sprintf("$%.3f", s.StdDev),
			pct(s.FracAboveOD, 2),
			fmt.Sprintf("%d", s.Steps),
		})
	}
	out := renderTable("Figure 1: spot price traces (30 days, "+string(r.Summaries[0].Market.Region)+")",
		[]string{"market", "on-demand", "mean", "min", "max", "stddev", ">od time", "steps"}, rows)

	var b strings.Builder
	b.WriteString(out)
	// Iterate in Summaries order: ranging over the Series map would print
	// the per-market blocks in a different order on every run.
	for _, s := range r.Summaries {
		id := s.Market
		fmt.Fprintf(&b, "\n%s daily max price ($, * = spike day):\n", id)
		for _, d := range r.Series[id] {
			marker := ""
			if d.Max > 4*d.Mean && d.Max > 0.1 {
				marker = " *"
			}
			fmt.Fprintf(&b, "  day %2d  mean %.4f  max %.3f%s\n", d.Day, d.Mean, d.Max, marker)
		}
	}
	return b.String()
}

// Figure10Result reproduces Fig. 10: price standard deviation per region
// per instance size, averaged over seeds.
type Figure10Result struct {
	Regions []market.Region
	Types   []market.InstanceType
	// StdDev[region][type] is the mean sampled standard deviation.
	StdDev map[market.Region]map[market.InstanceType]float64
}

// Figure10 computes per-market price variability.
func Figure10(opts Options) (Figure10Result, error) {
	opts = opts.normalize()
	res := Figure10Result{StdDev: map[market.Region]map[market.InstanceType]float64{}}
	n := 0
	for _, seed := range opts.Seeds {
		set, _, err := cloud.Seeded(opts.Market, opts.Cloud, seed)
		if err != nil {
			return Figure10Result{}, err
		}
		if n == 0 {
			res.Regions = set.Regions()
			res.Types = set.TypesIn(res.Regions[0])
			for _, r := range res.Regions {
				res.StdDev[r] = map[market.InstanceType]float64{}
			}
		}
		for _, r := range res.Regions {
			for _, ty := range res.Types {
				res.StdDev[r][ty] += market.StdDev(set.Trace(market.ID{Region: r, Type: ty}))
			}
		}
		n++
	}
	for _, r := range res.Regions {
		for _, ty := range res.Types {
			res.StdDev[r][ty] /= float64(n)
		}
	}
	return res, nil
}

// Render prints the Fig. 10 bars.
func (r Figure10Result) Render() string {
	header := []string{"region"}
	for _, ty := range r.Types {
		header = append(header, string(ty))
	}
	var rows [][]string
	for _, reg := range r.Regions {
		row := []string{string(reg)}
		for _, ty := range r.Types {
			row = append(row, fmt.Sprintf("%.3f", r.StdDev[reg][ty]))
		}
		rows = append(rows, row)
	}
	return renderTable("Figure 10: spot price standard deviation ($)", header, rows)
}
