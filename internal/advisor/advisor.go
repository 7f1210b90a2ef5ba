// Package advisor answers the question a service operator actually asks:
// "which bidding policy and migration mechanism should host MY service?"
// It sweeps the policy x mechanism matrix over the operator's price data,
// filters by an availability objective, prices the outcomes under the
// operator's revenue model, and ranks what is left by net benefit.
package advisor

import (
	"fmt"
	"sort"
	"strings"

	"spothost/internal/cloud"
	"spothost/internal/econ"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/sched"
	"spothost/internal/sim"
	"spothost/internal/vm"
)

// Request describes the operator's service and constraints.
type Request struct {
	// Home names the service's market.
	Home market.ID
	// Target is the availability objective candidates must meet, as a
	// fraction in [0,1] (0.9999 = four nines; 0 disables the filter).
	Target float64
	// Revenue prices downtime; the zero value makes ranking pure savings.
	Revenue econ.RevenueModel
	// Horizon bounds each evaluation run (0 = the price set's extent).
	Horizon sim.Duration
}

// Candidate is one evaluated configuration.
type Candidate struct {
	Policy    sched.Bidding
	Mechanism vm.Mechanism
	Report    metrics.Report
	Analysis  econ.Analysis
	// MeetsTarget reports whether the availability objective held.
	MeetsTarget bool
}

// Recommendation is the advisor's output: every candidate, ranked, plus
// the pick.
type Recommendation struct {
	Candidates []Candidate // ranked: best first
	// Best is the highest-net candidate that meets the target; nil when
	// nothing qualifies (the advice is then: stay on-demand).
	Best *Candidate
}

// Advise evaluates the matrix over the given price universe.
func Advise(set *market.Set, params cloud.Params, req Request) (Recommendation, error) {
	if set.Trace(req.Home) == nil {
		return Recommendation{}, fmt.Errorf("advisor: unknown home market %s", req.Home)
	}
	if !(req.Target >= 0 && req.Target <= 1) {
		return Recommendation{}, fmt.Errorf("advisor: target %v outside [0,1]", req.Target)
	}
	if err := req.Revenue.Validate(); err != nil {
		return Recommendation{}, err
	}
	var rec Recommendation
	for _, b := range []sched.Bidding{sched.Reactive, sched.Proactive, sched.PureSpot} {
		for _, m := range vm.Mechanisms() {
			cfg, err := sched.DefaultConfig(req.Home)
			if err != nil {
				return rec, err
			}
			cfg.Bidding = b
			cfg.Mechanism = m
			rep, err := sched.Run(set, params, cfg, req.Horizon)
			if err != nil {
				return rec, err
			}
			a, err := econ.Analyze(req.Revenue, rep)
			if err != nil {
				return rec, err
			}
			c := Candidate{
				Policy:      b,
				Mechanism:   m,
				Report:      rep,
				Analysis:    a,
				MeetsTarget: req.Target == 0 || 1-rep.Unavailability() >= req.Target,
			}
			rec.Candidates = append(rec.Candidates, c)
		}
	}
	// Rank: target-compliant first, then by net benefit.
	sort.SliceStable(rec.Candidates, func(i, j int) bool {
		a, b := rec.Candidates[i], rec.Candidates[j]
		if a.MeetsTarget != b.MeetsTarget {
			return a.MeetsTarget
		}
		return a.Analysis.Net > b.Analysis.Net
	})
	if len(rec.Candidates) > 0 && rec.Candidates[0].MeetsTarget &&
		rec.Candidates[0].Analysis.Net > 0 {
		rec.Best = &rec.Candidates[0]
	}
	return rec, nil
}

// Render prints the ranked matrix.
func (r Recommendation) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %-15s %8s %11s %10s %6s %s\n",
		"policy", "mechanism", "cost", "unavail", "net", "target", "verdict")
	for i, c := range r.Candidates {
		verdict := ""
		if r.Best != nil && c.Policy == r.Best.Policy && c.Mechanism == r.Best.Mechanism && i == 0 {
			verdict = "<= recommended"
		}
		meets := "no"
		if c.MeetsTarget {
			meets = "yes"
		}
		fmt.Fprintf(&b, "%-11s %-15s %7.1f%% %10.4f%% $%9.2f %6s %s\n",
			c.Policy, c.Mechanism, 100*c.Report.NormalizedCost(),
			100*c.Report.Unavailability(), c.Analysis.Net, meets, verdict)
	}
	if r.Best == nil {
		b.WriteString("no spot configuration meets the constraints: stay on on-demand servers\n")
	}
	return b.String()
}
