package controlplane

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"time"

	"spothost/internal/fleet"
	"spothost/internal/metrics"
	"spothost/internal/obs"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// State is a run's lifecycle position.
type State string

// Run states: a registered fleet is queued until its shard first picks it
// up, running while it advances, and done/failed terminally.
const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Snapshot is the externally visible state of one registered fleet: what
// GET /v1/tenants/{t}/fleets/{name} returns.
type Snapshot struct {
	Tenant      string        `json:"tenant"`
	Name        string        `json:"name"`
	State       State         `json:"state"`
	Shard       int           `json:"shard"`
	Seed        int64         `json:"seed"`
	Days        float64       `json:"days"`
	SimHours    float64       `json:"sim_hours"`
	Steps       int           `json:"steps"`
	Records     int           `json:"records"`
	Subscribers int           `json:"subscribers"`
	Error       string        `json:"error,omitempty"`
	Report      *fleet.Report `json:"report,omitempty"`
}

// StreamRecord is one line of the NDJSON stream: the fleet's cumulative
// report snapshot as of a completed simulated day (or the terminal
// record, flagged Done, whose Report matches a standalone run exactly).
type StreamRecord struct {
	Tenant   string        `json:"tenant"`
	Name     string        `json:"name"`
	Day      int           `json:"day"`
	SimHours float64       `json:"sim_hours"`
	Done     bool          `json:"done"`
	Error    string        `json:"error,omitempty"`
	Report   *fleet.Report `json:"report,omitempty"`
}

// run is one registered fleet: spec and config are immutable after
// registration, sim is owned exclusively by the shard goroutine, and the
// published state (snapshot fields, record log, subscriptions) is guarded
// by mu.
type run struct {
	tenant, name string
	spec         Spec
	fcfg         fleet.Config
	horizon      sim.Duration
	shard        *shard

	// sim, rec and ob are touched only by the shard goroutine; ledgerN
	// counts the ledger decisions already published to the mu-guarded
	// state, so each slice marshals only the new tail.
	sim     *fleet.Sim
	rec     *trace.Recorder
	ob      *obs.Recorder
	ledgerN int

	mu       sync.Mutex
	state    State
	err      error
	simNow   sim.Time
	steps    int
	report   *fleet.Report
	records  [][]byte // encoded NDJSON lines, newline-terminated
	tl       *obs.Timeline
	ledger   [][]byte // encoded ledger NDJSON lines, newline-terminated
	lastDay  int
	subs     int
	removed  bool
	terminal bool   // no further records will be appended
	doneSeq  uint64 // plane-wide finish order, for LRU eviction
	updated  chan struct{}
}

func newRun(tenant, name string, spec Spec, fcfg fleet.Config, horizon sim.Duration, sh *shard) *run {
	sh.assign()
	return &run{
		tenant:  tenant,
		name:    name,
		spec:    spec,
		fcfg:    fcfg,
		horizon: horizon,
		shard:   sh,
		state:   StateQueued,
		lastDay: -1,
		updated: make(chan struct{}),
	}
}

// notifyLocked wakes every waiter blocked on new records. Callers hold
// r.mu.
func (r *run) notifyLocked() {
	close(r.updated)
	r.updated = make(chan struct{})
}

// remove marks the run dropped from the registry: its shard discards it at
// the next dequeue and blocked stream readers see the log end.
func (r *run) remove() {
	r.mu.Lock()
	r.removed = true
	if !r.terminal {
		r.terminal = true
		r.doneSeq = 0 // removed runs evict first
	}
	r.notifyLocked()
	r.mu.Unlock()
}

func (r *run) isRemoved() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.removed
}

func (r *run) snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Tenant:      r.tenant,
		Name:        r.name,
		State:       r.state,
		Shard:       r.shard.id,
		Seed:        r.spec.Seed,
		Days:        r.spec.Days,
		SimHours:    r.simNow / sim.Hour,
		Steps:       r.steps,
		Records:     len(r.records),
		Subscribers: r.subs,
		Report:      r.report,
	}
	if r.err != nil {
		s.Error = r.err.Error()
	}
	return s
}

// publish stores the slice's report snapshot and, when a simulated day
// completed (or the run ended), appends one NDJSON record to the log.
// tl and ledger carry the slice's telemetry snapshot and newly marshaled
// decision lines (both nil when the plane runs without telemetry).
func (r *run) publish(rep fleet.Report, now sim.Time, done bool, tl *obs.Timeline, ledger [][]byte) {
	day := int(math.Floor(now/sim.Day + 1e-9))
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.removed {
		return
	}
	r.simNow = now
	r.steps++
	r.state = StateRunning
	r.report = &rep
	if tl != nil {
		r.tl = tl
	}
	r.ledger = append(r.ledger, ledger...)
	if day > r.lastDay || done {
		rec := StreamRecord{
			Tenant:   r.tenant,
			Name:     r.name,
			Day:      day,
			SimHours: now / sim.Hour,
			Done:     done,
			Report:   &rep,
		}
		line, err := json.Marshal(rec)
		if err == nil {
			r.records = append(r.records, append(line, '\n'))
			r.lastDay = day
		}
	}
	if done {
		r.state = StateDone
		r.terminal = true
	}
	r.notifyLocked()
}

// fail marks the run terminally failed and appends the terminal record.
func (r *run) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.removed || r.terminal {
		return
	}
	r.state = StateFailed
	r.err = err
	r.terminal = true
	rec := StreamRecord{
		Tenant: r.tenant,
		Name:   r.name,
		Day:    int(math.Floor(r.simNow/sim.Day + 1e-9)),
		Done:   true,
		Error:  err.Error(),
	}
	if line, jerr := json.Marshal(rec); jerr == nil {
		r.records = append(r.records, append(line, '\n'))
	}
	r.notifyLocked()
}

// shard is one runtime goroutine: a FIFO ready queue of runs awaiting
// their next time slice.
type shard struct {
	plane *Plane
	id    int
	col   *trace.Collector
	obs   *obs.Collector

	mu       sync.Mutex
	queue    []*run
	assigned int
	steps    uint64
	simSecs  float64
	wake     chan struct{}
}

func newShard(p *Plane, id int, col *trace.Collector, oc *obs.Collector) *shard {
	return &shard{plane: p, id: id, col: col, obs: oc, wake: make(chan struct{}, 1)}
}

func (sh *shard) assign() {
	sh.mu.Lock()
	sh.assigned++
	sh.mu.Unlock()
}

func (sh *shard) unassign() {
	sh.mu.Lock()
	sh.assigned--
	sh.mu.Unlock()
}

// enqueue appends the run to the ready queue and wakes the shard.
func (sh *shard) enqueue(r *run) {
	sh.mu.Lock()
	sh.queue = append(sh.queue, r)
	sh.mu.Unlock()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

func (sh *shard) queueDepth() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.queue)
}

func (sh *shard) stats() metrics.ControlPlaneShard {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return metrics.ControlPlaneShard{
		Fleets:     sh.assigned,
		QueueDepth: len(sh.queue),
		Steps:      sh.steps,
		SimSeconds: sh.simSecs,
	}
}

// next pops the ready queue's head, blocking until a run is ready or the
// plane closes (nil).
func (sh *shard) next() *run {
	for {
		sh.mu.Lock()
		if len(sh.queue) > 0 {
			r := sh.queue[0]
			sh.queue[0] = nil
			sh.queue = sh.queue[1:]
			if len(sh.queue) == 0 {
				sh.queue = nil // let the drained backing array go
			}
			sh.mu.Unlock()
			return r
		}
		sh.mu.Unlock()
		select {
		case <-sh.plane.ctx.Done():
			return nil
		case <-sh.wake:
		}
	}
}

// loop is the shard goroutine: advance the next ready run by one slice,
// publish, re-enqueue until done.
func (sh *shard) loop() {
	defer sh.plane.wg.Done()
	for {
		r := sh.next()
		if r == nil {
			return
		}
		sh.advance(r)
	}
}

// advance gives one run one time slice: lazily build its simulation on
// first contact, step it by the plane's slice, publish the snapshot and
// day record, and re-enqueue unless it finished.
func (sh *shard) advance(r *run) {
	if r.isRemoved() {
		return
	}
	start := time.Now()
	if r.sim == nil {
		if sh.col != nil {
			r.rec = sh.col.Run(r.tenant + "/" + r.name)
		}
		if sh.obs != nil {
			r.ob = sh.obs.Run(r.tenant + "/" + r.name)
		}
		s, err := buildSim(r.spec, r.fcfg, r.horizon, r.rec, r.ob)
		if err != nil {
			// Retire before publishing, as on the done path.
			sh.retire(r)
			r.fail(err)
			if afterPublish != nil {
				afterPublish(r)
			}
			return
		}
		r.sim = s
	}
	from := r.sim.Now()
	done, err := r.sim.Step(sh.plane.ctx, from+sh.plane.cfg.Slice)
	if err != nil {
		// The plane is shutting down: leave the run as-is so state stays
		// inspectable; it is not re-enqueued.
		return
	}
	now := r.sim.Now()
	sh.mu.Lock()
	sh.steps++
	sh.simSecs += now - from
	sh.mu.Unlock()
	sh.plane.observeStep(time.Since(start))

	var tl *obs.Timeline
	var lines [][]byte
	if r.ob != nil {
		// Snapshot telemetry on the shard goroutine (which owns the sim)
		// and hand copies to the mu-guarded published state.
		t := r.sim.Timeline()
		tl = &t
		ds := r.ob.Ledger()
		for _, d := range ds[r.ledgerN:] {
			if b, err := d.AppendNDJSON(nil); err == nil {
				lines = append(lines, b)
			}
		}
		r.ledgerN = len(ds)
	}
	rep := r.sim.Report()
	if done {
		// Retire before publishing: a reader that sees the done state must
		// also see the run counted by the collectors and stamped for
		// eviction.
		sh.retire(r)
	}
	r.publish(rep, now, done, tl, lines)
	if afterPublish != nil {
		afterPublish(r)
	}
	if !done {
		sh.enqueue(r)
	}
}

// afterPublish, when set (by tests only), runs on the shard goroutine
// right after each slice's state, or a build failure, is published.
var afterPublish func(*run)

// retire releases a finished run: eviction stamp, trace and telemetry
// hand-back to the collectors, simulation released.
func (sh *shard) retire(r *run) {
	// Take the plane lock (nextDoneSeq) before the run lock: the eviction
	// scan acquires them in that order too.
	seq := sh.plane.nextDoneSeq()
	r.mu.Lock()
	r.doneSeq = seq
	r.mu.Unlock()
	if r.rec != nil {
		sh.col.Done(r.rec)
		r.rec = nil
	}
	if r.ob != nil {
		sh.obs.Done(r.ob)
		r.ob = nil
	}
	r.sim = nil // the heavy engine/provider state is no longer needed
}

// nextDoneSeq stamps finish order for LRU eviction.
func (p *Plane) nextDoneSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.doneSeq++
	return p.doneSeq
}

func sortSnapshots(s []Snapshot) {
	sort.Slice(s, func(i, j int) bool { return s[i].Name < s[j].Name })
}

// Stream is a cursor over one fleet's NDJSON record log.
type Stream struct {
	plane  *Plane
	r      *run
	next   int
	closed bool
}

// Next returns the records past the cursor, blocking while none exist and
// more may come. done=true means the log is complete (the run reached its
// horizon, failed, or was unregistered) and every record has been
// returned. A canceled ctx or a closed plane returns the ctx error.
func (st *Stream) Next(ctx context.Context) (records [][]byte, done bool, err error) {
	for {
		st.r.mu.Lock()
		if st.next < len(st.r.records) {
			records = st.r.records[st.next:]
			st.next = len(st.r.records)
			terminal := st.r.terminal
			st.r.mu.Unlock()
			return records, terminal, nil
		}
		if st.r.terminal {
			st.r.mu.Unlock()
			return nil, true, nil
		}
		wait := st.r.updated
		st.r.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-st.plane.ctx.Done():
			return nil, false, st.plane.ctx.Err()
		case <-wait:
		}
	}
}

// Close releases the subscription slot. Idempotent.
func (st *Stream) Close() {
	if st.closed {
		return
	}
	st.closed = true
	st.r.mu.Lock()
	st.r.subs--
	st.r.mu.Unlock()
}
