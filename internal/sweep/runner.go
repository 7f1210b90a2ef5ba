package sweep

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/runpool"
	"spothost/internal/sched"
	"spothost/internal/sim"
)

// Spec describes a full sweep: the grid, the seeds, and the execution
// switches.
type Spec struct {
	Axes      []Axis
	Seeds     []int64
	Home      market.ID
	FleetSize int          // multi-market fleet size (0 means default 4)
	Horizon   sim.Duration // 0 means the universe's full extent
	Market    market.Config
	Workers   int // simulation parallelism; 0 means one per CPU

	// WarmStart shares a pilot's report with each warm-axis sibling that
	// is certified never to diverge from its neighbour within the horizon
	// (see certify.go). Shared reports are byte-identical to what a cold
	// run would produce.
	WarmStart bool

	// Fork resumes each warm-axis sibling that is not shared from the
	// family pilot's last quiescent checkpoint at or before their first
	// divergence point, so the sibling simulates only the tail of the
	// horizon. Forked reports are byte-identical to cold runs. A tau axis
	// has no static oracle and reuses work only through Fork: its
	// divergence point is read from the pilot's fork log, and siblings the
	// log proves identical share outright.
	Fork bool

	// Prune cuts configurations that are strictly worse on cost and no
	// better on availability than another configuration on every seed
	// evaluated so far. Pruned configs are reported with the point that
	// dominated them; their remaining seeds are skipped.
	Prune bool

	// Universe overrides per-seed universe generation (tests, replayed
	// traces). Nil means market.SharedCache().Generate with Spec.Market
	// and the cell's seed.
	Universe func(seed int64) (*market.Set, error)

	// OnCell, when set, observes every resolved cell in deterministic
	// order (seed waves in seed order, points ascending within a wave).
	// Called from the runner goroutine only.
	OnCell func(Cell)

	// OnProgress, when set, receives throttled throughput updates. It may
	// be called from worker goroutines; calls are serialized.
	OnProgress func(Progress)
}

// Cell is one resolved (point, seed) simulation cell.
type Cell struct {
	Point   int // index into Plan.Points
	SeedIdx int // index into Spec.Seeds
	Seed    int64
	Values  []float64 // the point's knob values, in axis order
	Report  metrics.Report
	Shared  bool     // true when the report was reused from a certified pilot
	Forked  bool     // true when the cell resumed a pilot checkpoint
	ForkAt  sim.Time // checkpoint time the fork resumed from (when Forked)
	Pilot   int      // point whose simulation fed the cell (== Point when cold)
}

// Progress is a point-in-time view of a running sweep.
type Progress struct {
	Done, Total                            int
	Simulated, Shared, Forked, PrunedCells int
	Elapsed                                time.Duration
}

// CellsPerSec returns resolved cells per wall-clock second so far.
func (p Progress) CellsPerSec() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Done) / p.Elapsed.Seconds()
}

// Result is the aggregate outcome of one grid point.
type Result struct {
	Point       int
	Values      []float64
	SeedsRun    int            // seeds resolved before (possible) pruning
	Mean        metrics.Report // mean over SeedsRun, as metrics.Average
	SharedSeeds int            // seeds resolved by reusing a pilot's report
	ForkedSeeds int            // seeds resolved by resuming a pilot checkpoint
	MeanForkAt  sim.Time       // mean resume time over forked seeds (0 if none)
	Pilot       int            // pilot point when uniform across seeds; -1 if mixed
	Pruned      bool
	DominatedBy int // point index that dominated this one; -1 if not pruned
}

// Summary is the outcome of a sweep. Every grid point appears in Results
// exactly once — pruned points carry their dominator, so no cut is silent.
type Summary struct {
	Plan          *Plan
	Seeds         []int64
	Cells         int // points x seeds
	Simulated     int // cells that ran a cold simulation
	Shared        int // cells resolved by a certified pilot's report
	Forked        int // cells resolved by resuming a pilot checkpoint
	PrunedCells   int // cells skipped because their config was pruned
	PrunedConfigs int
	Elapsed       time.Duration
	Results       []Result
}

// CellsPerSec returns resolved cells (simulated + shared + forked +
// pruned) per wall-clock second.
func (s *Summary) CellsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Cells) / s.Elapsed.Seconds()
}

// seedStat is the compact per-(point, seed) record pruning needs; full
// reports are never buffered per cell.
type seedStat struct {
	cost float64 // normalized cost
	unav float64 // unavailability
}

// pointState is the per-grid-point running state: a streaming mean
// accumulator plus the compact per-seed stats and reuse tallies.
type pointState struct {
	accum       metrics.Accum
	stats       []seedStat
	sharedSeeds int
	forkedSeeds int
	forkAtSum   float64
	pilot       int
	seenPilot   bool
	pruned      bool
	dominatedBy int
}

// maxDominatorChecks bounds the per-point pruning work: only this many
// frontier candidates get the full per-seed verification. Missing a
// dominator just runs a config that could have been cut; it never cuts a
// config that should have run.
const maxDominatorChecks = 4

// pilotCheckpointEvery is the capture cadence of fork pilots in
// simulated time.
const pilotCheckpointEvery = 6 * sim.Hour

// waveJob is one phase-1 simulation of a seed wave: a cold run, with
// checkpoint capture when the point pilots forks.
type waveJob struct {
	pt      int
	capture bool
}

// waveRes carries a phase-1 result; log holds checkpoints only for capture
// jobs.
type waveRes struct {
	rep metrics.Report
	log *sched.ForkLog
}

// forkJob is one phase-2 resolution: a family member resolved against the
// family pilot's fork log once the pilot has run.
type forkJob struct {
	pt    int      // point to resolve
	pilot int      // family pilot whose checkpoints it resumes
	div   sim.Time // static divergence bound vs the pilot (unused for tau)
}

// resolved is a wave cell's final report plus how it was obtained.
type resolved struct {
	rep    metrics.Report
	pilot  int
	shared bool
	forked bool
	forkAt sim.Time
}

// Run executes the sweep described by spec, streaming cells through the
// bounded aggregator, and returns the summary. Cancelling ctx aborts every
// in-flight simulation promptly.
func Run(ctx context.Context, spec *Spec) (*Summary, error) {
	if len(spec.Seeds) == 0 {
		return nil, fmt.Errorf("sweep: no seeds")
	}
	plan, err := NewPlan(spec.Axes, spec.Home, spec.FleetSize)
	if err != nil {
		return nil, err
	}
	cloudP := cloud.DefaultParams(0)
	universe := spec.Universe
	if universe == nil {
		cache := market.SharedCache()
		universe = func(seed int64) (*market.Set, error) {
			mc := spec.Market
			mc.Seed = seed
			return cache.Generate(mc)
		}
	}
	nP := len(plan.Points)
	totalCells := nP * len(spec.Seeds)
	states := make([]pointState, nP)
	for i := range states {
		states[i].dominatedBy = -1
		states[i].stats = make([]seedStat, 0, len(spec.Seeds))
	}

	start := time.Now()
	var done, simulated, sharedCt, forkedCt, prunedCells atomic.Int64
	var progMu sync.Mutex
	var lastProg time.Time
	emit := func(force bool) {
		if spec.OnProgress == nil {
			return
		}
		progMu.Lock()
		defer progMu.Unlock()
		now := time.Now()
		if !force && now.Sub(lastProg) < 200*time.Millisecond {
			return
		}
		lastProg = now
		spec.OnProgress(Progress{
			Done:        int(done.Load()),
			Total:       totalCells,
			Simulated:   int(simulated.Load()),
			Shared:      int(sharedCt.Load()),
			Forked:      int(forkedCt.Load()),
			PrunedCells: int(prunedCells.Load()),
			Elapsed:     now.Sub(start),
		})
	}
	// resolve counts one cell resolved by route.
	resolve := func(route *atomic.Int64) {
		done.Add(1)
		route.Add(1)
		emit(false)
	}

	pilotOf := make([]int, nP)      // point -> class pilot this wave, or -1
	jobIdx := make([]int, nP)       // point -> index in the phase-1 job list
	cellRes := make([]resolved, nP) // per-point resolution this wave
	for seedIdx, seed := range spec.Seeds {
		set, err := universe(seed)
		if err != nil {
			return nil, err
		}
		horizon := set.ClampHorizon(spec.Horizon)

		// Plan the wave by one rule per family. alive[0] is the family
		// pilot; each later member is shared with the previous member's
		// class leader when the pair can never diverge, else forked from
		// the pilot's last checkpoint at or before its divergence bound
		// when a capture can precede that bound, else run cold. Phase 1
		// runs pilots and cold members (a pilot captures checkpoints when
		// its family queued a fork); phase 2 resolves the forks.
		for i := range pilotOf {
			pilotOf[i] = -1
		}
		var jobs []waveJob
		var forkJobs []forkJob
		var alive []int
		for _, fam := range plan.Families {
			alive = alive[:0]
			for _, m := range fam.Members {
				if !states[m].pruned {
					alive = append(alive, m)
				}
			}
			if len(alive) == 0 {
				continue
			}
			if len(alive) == 1 || !(spec.WarmStart || spec.Fork) {
				for _, m := range alive {
					jobs = append(jobs, waveJob{pt: m})
				}
				continue
			}
			pilot := alive[0]
			jobs = append(jobs, waveJob{pt: pilot})
			pilotJob, queued := len(jobs)-1, len(forkJobs)
			// The pilot and member j are provably identical until the
			// prefix-minimum of the adjacent divergence times up to j.
			// Tau has no static oracle (times is nil): its members never
			// share here, and phase 2 reads their bound from the pilot's
			// fork log.
			times := adjacentDivergeTimes(plan, alive, set, horizon)
			leader, div := pilot, never
			for j, m := range alive[1:] {
				adj := sim.Time(0)
				if times != nil {
					adj = times[j]
				}
				div = min(div, adj)
				switch {
				case spec.WarmStart && adj >= horizon:
					pilotOf[m] = leader
					continue
				case spec.Fork && (times == nil || min(div, horizon) >= pilotCheckpointEvery):
					// A static bound before the pilot's first capture
					// could resume no checkpoint: such a member runs
					// cold below, in phase 1.
					forkJobs = append(forkJobs, forkJob{pt: m, pilot: pilot, div: div})
				default:
					jobs = append(jobs, waveJob{pt: m})
				}
				leader = m
			}
			jobs[pilotJob].capture = len(forkJobs) > queued
		}

		reports, err := runpool.MapCtx(ctx, spec.Workers, jobs, func(ctx context.Context, _ int, j waveJob) (waveRes, error) {
			cp := cloudP
			cp.Seed = seed
			every := sim.Duration(0)
			if j.capture {
				every = pilotCheckpointEvery
			}
			rep, lg, err := sched.RunWithCheckpointsCtx(ctx, set, cp, plan.Points[j.pt].Config, horizon, every)
			if err == nil {
				resolve(&simulated)
			}
			return waveRes{rep: rep, log: lg}, err
		})
		if err != nil {
			return nil, err
		}
		for i, j := range jobs {
			jobIdx[j.pt] = i
			cellRes[j.pt] = resolved{rep: reports[i].rep, pilot: j.pt}
		}

		fres, err := runpool.MapCtx(ctx, spec.Workers, forkJobs, func(ctx context.Context, _ int, j forkJob) (resolved, error) {
			pr := reports[jobIdx[j.pilot]]
			div := j.div
			if warm := plan.WarmAxis; plan.Axes[warm].Knob == KnobTau {
				var share bool
				div, share = tauDivergence(pr.log, plan.Points[j.pilot].Values[warm], plan.Points[j.pt].Values[warm])
				if share {
					resolve(&sharedCt)
					return resolved{rep: pr.rep, pilot: j.pilot, shared: true}, nil
				}
			}
			cp := cloudP
			cp.Seed = seed
			cfg := plan.Points[j.pt].Config
			if ck := pr.log.LastCheckpointAtOrBefore(min(div, horizon)); ck != nil {
				rep, err := sched.RunForkedCtx(ctx, set, cp, cfg, horizon, ck)
				if err == nil {
					resolve(&forkedCt)
				}
				return resolved{rep: rep, pilot: j.pilot, forked: true, forkAt: ck.At()}, err
			}
			// No usable checkpoint (a tau divergence before the first
			// capture, or no quiescent capture at or before the bound):
			// run cold.
			rep, err := sched.RunCtx(ctx, set, cp, cfg, horizon)
			if err == nil {
				resolve(&simulated)
			}
			return resolved{rep: rep, pilot: j.pt}, err
		})
		if err != nil {
			return nil, err
		}
		for i, j := range forkJobs {
			cellRes[j.pt] = fres[i]
		}

		// Distribute resolutions to every alive point, in point order.
		for p := 0; p < nP; p++ {
			st := &states[p]
			if st.pruned {
				continue
			}
			r := cellRes[p]
			if pilotOf[p] >= 0 {
				// Certified identical to its class pilot for the whole
				// horizon: reuse the pilot's resolved report.
				r = resolved{rep: cellRes[pilotOf[p]].rep, pilot: pilotOf[p], shared: true}
				resolve(&sharedCt)
			}
			st.accum.Add(r.rep)
			st.stats = append(st.stats, seedStat{cost: r.rep.NormalizedCost(), unav: r.rep.Unavailability()})
			if r.shared {
				st.sharedSeeds++
			}
			if r.forked {
				st.forkedSeeds++
				st.forkAtSum += r.forkAt
			}
			if !st.seenPilot {
				st.seenPilot = true
				st.pilot = r.pilot
			} else if st.pilot != r.pilot {
				st.pilot = -1
			}
			if spec.OnCell != nil {
				spec.OnCell(Cell{
					Point: p, SeedIdx: seedIdx, Seed: seed,
					Values: plan.Points[p].Values,
					Report: r.rep, Shared: r.shared, Pilot: r.pilot,
					Forked: r.forked, ForkAt: r.forkAt,
				})
			}
		}

		if spec.Prune && seedIdx+1 < len(spec.Seeds) {
			cut := pruneDominated(states, seedIdx+1)
			// Each cut config skips every remaining seed; those cells are
			// resolved by domination, not silently dropped.
			skipped := int64(len(cut) * (len(spec.Seeds) - seedIdx - 1))
			prunedCells.Add(skipped)
			done.Add(skipped)
		}
		emit(false)
	}
	emit(true)

	sum := &Summary{
		Plan:        plan,
		Seeds:       spec.Seeds,
		Cells:       totalCells,
		Simulated:   int(simulated.Load()),
		Shared:      int(sharedCt.Load()),
		Forked:      int(forkedCt.Load()),
		PrunedCells: int(prunedCells.Load()),
		Elapsed:     time.Since(start),
		Results:     make([]Result, nP),
	}
	for p := range states {
		st := &states[p]
		res := Result{
			Point:       p,
			Values:      plan.Points[p].Values,
			SeedsRun:    len(st.stats),
			Mean:        st.accum.Mean(),
			SharedSeeds: st.sharedSeeds,
			ForkedSeeds: st.forkedSeeds,
			Pilot:       st.pilot,
			Pruned:      st.pruned,
			DominatedBy: st.dominatedBy,
		}
		if st.forkedSeeds > 0 {
			res.MeanForkAt = st.forkAtSum / float64(st.forkedSeeds)
		}
		sum.Results[p] = res
		if st.pruned {
			sum.PrunedConfigs++
		}
	}
	return sum, nil
}

// pruneDominated marks every alive point that is strictly worse on cost
// and no better on availability than some other point on every seed run so
// far, and returns the newly pruned point indices.
//
// Candidate dominators are drawn from the (mean cost, mean unavailability)
// staircase frontier, so the pass is O(P log P) rather than O(P^2); each
// point checks at most maxDominatorChecks candidates with the full
// per-seed test. Decisions are computed from the wave-start state for
// every point before any mark is applied, so the outcome is deterministic
// and independent of iteration order.
func pruneDominated(states []pointState, seedsRun int) []int {
	type entry struct {
		cost, unav float64
		p          int
	}
	var alive []entry
	for p := range states {
		st := &states[p]
		if st.pruned || len(st.stats) < seedsRun {
			continue
		}
		var cost, unav float64
		for _, s := range st.stats[:seedsRun] {
			cost += s.cost
			unav += s.unav
		}
		n := float64(seedsRun)
		alive = append(alive, entry{cost: cost / n, unav: unav / n, p: p})
	}
	if len(alive) < 2 {
		return nil
	}
	sort.Slice(alive, func(i, j int) bool {
		if alive[i].cost != alive[j].cost {
			return alive[i].cost < alive[j].cost
		}
		if alive[i].unav != alive[j].unav {
			return alive[i].unav < alive[j].unav
		}
		return alive[i].p < alive[j].p
	})
	// Staircase frontier: cheapest-first, keep strict improvements in
	// mean unavailability. Along the frontier cost increases and
	// unavailability strictly decreases.
	var frontier []entry
	for _, e := range alive {
		if len(frontier) == 0 || e.unav < frontier[len(frontier)-1].unav {
			frontier = append(frontier, e)
		}
	}

	dominates := func(d, c int) bool {
		ds, cs := states[d].stats[:seedsRun], states[c].stats[:seedsRun]
		for s := range ds {
			if !(ds[s].cost < cs[s].cost && ds[s].unav <= cs[s].unav) {
				return false
			}
		}
		return true
	}

	var cut []int
	for _, c := range alive {
		// Frontier entries strictly cheaper on mean cost...
		hi := sort.Search(len(frontier), func(i int) bool { return frontier[i].cost >= c.cost })
		checks := 0
		// ...and no worse on mean unavailability form a suffix of [0, hi).
		for j := hi - 1; j >= 0 && checks < maxDominatorChecks; j-- {
			d := frontier[j]
			if d.unav > c.unav {
				break
			}
			if d.p == c.p {
				continue
			}
			checks++
			if dominates(d.p, c.p) {
				cut = append(cut, c.p)
				states[c.p].dominatedBy = d.p
				break
			}
		}
	}
	for _, p := range cut {
		states[p].pruned = true
	}
	return cut
}
