// Package sweep turns the repo's one-knob parameter sweeps into a
// million-cell grid engine. A sweep is the cross product of several knob
// axes (bid multiple, checkpoint bound tau, hysteresis, stability lambda)
// times a list of seeds; every (grid point, seed) pair is one simulation
// cell. Four mechanisms keep huge grids tractable on one machine:
//
//   - warm-start sharing: cells that differ only in a late-binding knob
//     are partitioned, per universe, into equivalence classes by a sound
//     static oracle over the columnar price traces; one pilot simulation's
//     report serves the whole class, byte for byte (see certify.go);
//   - fork reuse: cells that diverge mid-horizon resume the family pilot's
//     last quiescent checkpoint before their first divergence point and
//     simulate only the tail, still byte-identical to a cold run — this is
//     what makes a tau axis, which has no whole-horizon oracle, nearly as
//     cheap as a warm one (see runner.go and sched.Checkpoint);
//   - pruning: configurations that are strictly worse on cost and no
//     better on availability than a completed neighbor, on every seed
//     evaluated so far, are cut from the remaining seed waves — logged and
//     reported, never silently dropped (see runner.go);
//   - bounded aggregation: per-point results stream through running
//     accumulators, so memory is O(points), not O(cells).
package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/vm"
)

// Knob names accepted by an Axis. They match cmd/sweep's -knob flag.
const (
	KnobBid        = "bid"        // proactive bid as a multiple of on-demand
	KnobTau        = "tau"        // checkpoint bound tau (seconds of lost work)
	KnobHysteresis = "hysteresis" // minimum relative improvement before a move
	KnobLambda     = "lambda"     // stability penalty weight
)

// knownKnob reports whether the sweep engine understands a knob name.
func knownKnob(k string) bool {
	switch k {
	case KnobBid, KnobTau, KnobHysteresis, KnobLambda:
		return true
	}
	return false
}

// warmable reports whether a knob has a static divergence-time oracle
// (certify.go) and can therefore certify whole-horizon sharing.
func warmable(k string) bool { return k == KnobBid || k == KnobHysteresis }

// forkable reports whether a knob's siblings can resume a pilot's
// mid-horizon checkpoint (runner.go). Every warmable knob is forkable; tau
// is forkable without being warmable — its divergence point is discovered
// dynamically from the pilot's forced-warning log rather than from a
// static trace scan. Lambda is neither: it shapes every decision.
func forkable(k string) bool { return warmable(k) || k == KnobTau }

// Axis is one knob dimension of a grid.
type Axis struct {
	Knob   string
	Values []float64
}

// ParseGrid parses a -grid specification of the form
// "knob=v1,v2,...;knob2=w1,w2,..." into axes. Axis order in the string is
// the nesting order of the cross product (first axis varies slowest).
func ParseGrid(s string) ([]Axis, error) {
	var axes []Axis
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		knob, vals, ok := strings.Cut(part, "=")
		knob = strings.TrimSpace(knob)
		if !ok || knob == "" {
			return nil, fmt.Errorf("sweep: bad grid axis %q (want knob=v1,v2,...)", part)
		}
		if !knownKnob(knob) {
			return nil, fmt.Errorf("sweep: unknown knob %q", knob)
		}
		if seen[knob] {
			return nil, fmt.Errorf("sweep: duplicate axis %q", knob)
		}
		seen[knob] = true
		var values []float64
		for _, f := range strings.Split(vals, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("sweep: bad value %q for %s: %w", f, knob, err)
			}
			values = append(values, v)
		}
		if len(values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", knob)
		}
		axes = append(axes, Axis{Knob: knob, Values: values})
	}
	if len(axes) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	return axes, nil
}

// Setting is one knob assignment of a grid point.
type Setting struct {
	Knob  string
	Value float64
}

// BuildConfig builds the scheduler config for one grid point: the repo's
// default single-market proactive config with every setting applied. Any
// hysteresis or lambda setting switches to the multi-market fleet shape
// (cmd/sweep's historical behavior): fleetSize one-unit VMs (default 4)
// over every instance type in the home region.
func BuildConfig(home market.ID, fleetSize int, settings []Setting) (sched.Config, error) {
	cfg, err := sched.DefaultConfig(home, market.DefaultTypes())
	if err != nil {
		return cfg, err
	}
	multi := false
	for _, s := range settings {
		if s.Knob == KnobHysteresis || s.Knob == KnobLambda {
			multi = true
		}
	}
	if multi {
		if fleetSize <= 0 {
			fleetSize = 4
		}
		cfg.Service = sched.ServiceSpec{
			VM:    vm.Spec{MemoryGB: 1.4, DirtyRateMBps: 8, DiskGB: 4, Units: 1},
			Count: fleetSize,
		}
		cfg.Markets = nil
		for _, ts := range market.DefaultTypes() {
			cfg.Markets = append(cfg.Markets, market.ID{Region: home.Region, Type: ts.Name})
		}
	}
	for _, s := range settings {
		switch s.Knob {
		case KnobBid:
			cfg.BidMultiple = s.Value
		case KnobTau:
			cfg.VMParams.CheckpointBound = s.Value
		case KnobHysteresis:
			cfg.Hysteresis = s.Value
		case KnobLambda:
			cfg.StabilityPenalty = s.Value
		default:
			return cfg, fmt.Errorf("sweep: unknown knob %q", s.Knob)
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Point is one grid point: a knob value per axis plus its built config.
type Point struct {
	Values []float64 // one per axis, in axis order
	Config sched.Config
}

// Family groups the points of a plan that agree on every axis except the
// warm axis — the candidates for warm-start sharing. Members are point
// indices ordered by ascending warm-axis value.
type Family struct {
	Members []int
}

// Plan is a compiled grid: every point's config, plus the warm-start
// structure (which axis is late-binding, and the point families along it).
type Plan struct {
	Axes     []Axis
	Points   []Point
	WarmAxis int // axis index certified for warm-start sharing; -1 if none
	Families []Family
}

// NewPlan expands the axes' cross product into points (first axis slowest,
// matching nested loops over the axes in order), builds and validates each
// point's config, picks the warm axis, and groups points into families.
//
// The warm axis is the certifiable axis (bid or hysteresis) with the most
// values — the one whose sharing collapses the most cells; ties go to the
// earlier axis. When no certifiable axis exists but a forkable one does
// (tau), the forkable axis becomes the warm axis: it cannot share whole
// horizons, but a fork-enabled runner can still resume siblings from the
// family pilot's checkpoints. Grids with neither get WarmAxis == -1 and
// degenerate to singleton families (every cell runs cold).
func NewPlan(axes []Axis, home market.ID, fleetSize int) (*Plan, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("sweep: no axes")
	}
	total := 1
	seen := map[string]bool{}
	for _, ax := range axes {
		if !knownKnob(ax.Knob) {
			return nil, fmt.Errorf("sweep: unknown knob %q", ax.Knob)
		}
		if seen[ax.Knob] {
			return nil, fmt.Errorf("sweep: duplicate axis %q", ax.Knob)
		}
		seen[ax.Knob] = true
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no values", ax.Knob)
		}
		total *= len(ax.Values)
	}

	p := &Plan{Axes: axes, WarmAxis: -1}
	for i, ax := range axes {
		if !warmable(ax.Knob) {
			continue
		}
		if p.WarmAxis == -1 || len(ax.Values) > len(axes[p.WarmAxis].Values) {
			p.WarmAxis = i
		}
	}
	if p.WarmAxis == -1 {
		for i, ax := range axes {
			if !forkable(ax.Knob) {
				continue
			}
			if p.WarmAxis == -1 || len(ax.Values) > len(axes[p.WarmAxis].Values) {
				p.WarmAxis = i
			}
		}
	}

	p.Points = make([]Point, 0, total)
	idx := make([]int, len(axes))
	settings := make([]Setting, len(axes))
	for {
		values := make([]float64, len(axes))
		for i, ax := range axes {
			values[i] = ax.Values[idx[i]]
			settings[i] = Setting{Knob: ax.Knob, Value: values[i]}
		}
		cfg, err := BuildConfig(home, fleetSize, settings)
		if err != nil {
			return nil, err
		}
		p.Points = append(p.Points, Point{Values: values, Config: cfg})
		// Odometer increment, last axis fastest.
		i := len(axes) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(axes[i].Values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	p.buildFamilies()
	return p, nil
}

// buildFamilies groups points that agree on every non-warm axis. Family
// members are sorted by ascending warm-axis value, the order the adjacent-
// pair divergence oracle needs.
func (p *Plan) buildFamilies() {
	if p.WarmAxis < 0 {
		p.Families = make([]Family, len(p.Points))
		for i := range p.Points {
			p.Families[i] = Family{Members: []int{i}}
		}
		return
	}
	groups := map[string]int{} // key over non-warm values -> family index
	var key strings.Builder
	for i, pt := range p.Points {
		key.Reset()
		for a, v := range pt.Values {
			if a == p.WarmAxis {
				continue
			}
			fmt.Fprintf(&key, "%x;", v)
		}
		k := key.String()
		fi, ok := groups[k]
		if !ok {
			fi = len(p.Families)
			groups[k] = fi
			p.Families = append(p.Families, Family{})
		}
		p.Families[fi].Members = append(p.Families[fi].Members, i)
	}
	for fi := range p.Families {
		m := p.Families[fi].Members
		sort.SliceStable(m, func(a, b int) bool {
			return p.Points[m[a]].Values[p.WarmAxis] < p.Points[m[b]].Values[p.WarmAxis]
		})
	}
}
