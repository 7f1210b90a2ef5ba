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
	Cloud     cloud.Params // zero BidCap means cloud.DefaultParams(0)
	Workers   int          // simulation parallelism; 0 means one per CPU

	// WarmStart shares one pilot simulation across each certified-equal
	// class of warm-axis siblings (see certify.go). Reports of shared
	// cells are byte-identical to what a cold run would produce.
	WarmStart bool

	// Fork resumes warm-axis siblings from the family pilot's last
	// quiescent checkpoint at or before their first divergence point, so
	// a sibling simulates only the tail of the horizon instead of all of
	// it. Forked reports are byte-identical to cold runs. Fork is what
	// makes a tau axis — which has no whole-horizon oracle and therefore
	// never shares — nearly as cheap as a warm one, and it composes with
	// WarmStart: classes that never diverge still share outright.
	Fork bool

	// CheckpointEvery is the capture cadence of fork pilots in simulated
	// time. 0 means a default of six simulated hours.
	CheckpointEvery sim.Duration

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

// waveJob is one phase-1 simulation of a seed wave: a cold run, with
// checkpoint capture when the point pilots forks.
type waveJob struct {
	pt      int
	capture bool
}

// waveRes carries a phase-1 result; log is non-nil only for capture jobs.
type waveRes struct {
	rep metrics.Report
	log *sched.ForkLog
}

// forkJob is one phase-2 resolution: a class pilot that resumes its family
// pilot's checkpoint instead of running the whole horizon.
type forkJob struct {
	pt         int      // point to resolve
	pilot      int      // family pilot whose checkpoints it resumes
	div        sim.Time // static divergence bound vs the family pilot
	dynamic    bool     // tau: divergence read from the pilot's ForkLog
	tau0, tauJ float64  // checkpoint bounds of pilot and sibling (dynamic)
}

// forkRes is how a fork job was resolved: shared outright, forked from a
// checkpoint, or (fallback) simulated cold.
type forkRes struct {
	rep    metrics.Report
	shared bool
	forked bool
	forkAt sim.Time
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
	cloudP := spec.Cloud
	if cloudP.BidCap == 0 {
		cloudP = cloud.DefaultParams(0)
	}
	universe := spec.Universe
	if universe == nil {
		cache := market.SharedCache()
		universe = func(seed int64) (*market.Set, error) {
			mc := spec.Market
			mc.Seed = seed
			return cache.Generate(mc)
		}
	}
	ckEvery := spec.CheckpointEvery
	if ckEvery <= 0 {
		ckEvery = 6 * sim.Hour
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

	warmKnob := ""
	if plan.WarmAxis >= 0 {
		warmKnob = plan.Axes[plan.WarmAxis].Knob
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

		// Plan the wave. Phase 1 runs cold simulations (family pilots of
		// forking families capture checkpoints); phase 2 resumes every
		// remaining class pilot from its family pilot's checkpoints.
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
			if len(alive) == 1 || plan.WarmAxis < 0 {
				for _, m := range alive {
					jobs = append(jobs, waveJob{pt: m})
				}
				continue
			}
			switch {
			case warmable(warmKnob) && (spec.WarmStart || spec.Fork):
				times, _ := adjacentDivergeTimes(plan, alive, set, cloudP.BidCap, horizon)
				var classes [][]int
				if spec.WarmStart {
					classes = classesFromTimes(alive, times, horizon)
				} else {
					classes = singletons(alive)
				}
				if !spec.Fork || len(classes) == 1 {
					for _, cls := range classes {
						jobs = append(jobs, waveJob{pt: cls[0]})
						for _, m := range cls[1:] {
							pilotOf[m] = cls[0]
						}
					}
					continue
				}
				// Trajectories of the family pilot and member j are
				// provably identical until the prefix-minimum of the
				// adjacent divergence times up to j, so each later class
				// pilot resumes the last checkpoint at or before it.
				famPilot := alive[0]
				jobs = append(jobs, waveJob{pt: famPilot, capture: true})
				prefix := make([]sim.Time, len(alive))
				prefix[0] = never
				for j := 1; j < len(alive); j++ {
					prefix[j] = prefix[j-1]
					if times[j-1] < prefix[j] {
						prefix[j] = times[j-1]
					}
				}
				off := 0
				for ci, cls := range classes {
					if ci > 0 {
						forkJobs = append(forkJobs, forkJob{pt: cls[0], pilot: famPilot, div: prefix[off]})
					}
					for _, m := range cls[1:] {
						pilotOf[m] = cls[0]
					}
					off += len(cls)
				}
			case warmKnob == KnobTau && spec.Fork:
				// No static oracle: divergence is found in phase 2 from
				// the pilot's forced-warning log, per sibling.
				famPilot := alive[0]
				jobs = append(jobs, waveJob{pt: famPilot, capture: true})
				tau0 := plan.Points[famPilot].Values[plan.WarmAxis]
				for _, m := range alive[1:] {
					tauJ := plan.Points[m].Values[plan.WarmAxis]
					if tauJ == tau0 {
						pilotOf[m] = famPilot
						continue
					}
					forkJobs = append(forkJobs, forkJob{
						pt: m, pilot: famPilot, dynamic: true, tau0: tau0, tauJ: tauJ,
					})
				}
			default:
				for _, m := range alive {
					jobs = append(jobs, waveJob{pt: m})
				}
			}
		}

		reports, err := runpool.MapCtx(ctx, spec.Workers, jobs, func(ctx context.Context, _ int, j waveJob) (waveRes, error) {
			cp := cloudP
			cp.Seed = seed
			cfg := plan.Points[j.pt].Config
			if j.capture {
				rep, lg, err := sched.RunWithCheckpointsCtx(ctx, set, cp, cfg, horizon, ckEvery)
				if err == nil {
					done.Add(1)
					simulated.Add(1)
					emit(false)
				}
				return waveRes{rep: rep, log: lg}, err
			}
			rep, err := sched.RunCtx(ctx, set, cp, cfg, horizon)
			if err == nil {
				done.Add(1)
				simulated.Add(1)
				emit(false)
			}
			return waveRes{rep: rep}, err
		})
		if err != nil {
			return nil, err
		}
		for i, j := range jobs {
			jobIdx[j.pt] = i
			cellRes[j.pt] = resolved{rep: reports[i].rep, pilot: j.pt}
		}

		fres, err := runpool.MapCtx(ctx, spec.Workers, forkJobs, func(ctx context.Context, _ int, j forkJob) (forkRes, error) {
			pr := reports[jobIdx[j.pilot]]
			div := j.div
			if j.dynamic {
				// Trajectories under two checkpoint bounds separate at the
				// first forced warning whose grace window loses memory
				// under one bound but not the other. When no warning flips
				// and every warning lost memory under both bounds (so the
				// metric-only suspend instant deadline-tau never fired)
				// and the checkpoint daemon never ran, the sibling's
				// entire report is byte-identical: share it outright.
				div = never
				share := !pr.log.DaemonRan
				for _, w := range pr.log.ForcedWarnings {
					lost0, lostJ := w.Grace < j.tau0, w.Grace < j.tauJ
					switch {
					case lost0 != lostJ:
						share = false
						if w.At < div {
							div = w.At
						}
					case !lost0:
						share = false
					}
				}
				if share {
					done.Add(1)
					sharedCt.Add(1)
					emit(false)
					return forkRes{rep: pr.rep, shared: true}, nil
				}
			}
			cp := cloudP
			cp.Seed = seed
			cfg := plan.Points[j.pt].Config
			bound := div
			if bound > horizon {
				bound = horizon
			}
			if ck := pr.log.LastCheckpointAtOrBefore(bound); ck != nil {
				rep, err := sched.RunForkedCtx(ctx, set, cp, cfg, horizon, ck)
				if err == nil {
					done.Add(1)
					forkedCt.Add(1)
					emit(false)
				}
				return forkRes{rep: rep, forked: true, forkAt: ck.At()}, err
			}
			// No usable checkpoint (divergence before the first capture,
			// or the pilot never reached quiescence): run cold.
			rep, err := sched.RunCtx(ctx, set, cp, cfg, horizon)
			if err == nil {
				done.Add(1)
				simulated.Add(1)
				emit(false)
			}
			return forkRes{rep: rep}, err
		})
		if err != nil {
			return nil, err
		}
		for i, j := range forkJobs {
			fr := fres[i]
			r := resolved{rep: fr.rep, pilot: j.pt, shared: fr.shared, forked: fr.forked, forkAt: fr.forkAt}
			if fr.shared || fr.forked {
				r.pilot = j.pilot
			}
			cellRes[j.pt] = r
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
				sharedCt.Add(1)
				done.Add(1)
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
