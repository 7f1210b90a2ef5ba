package main

// The serve workload: a live spotserve on a loopback port, driven by an
// open-loop tenant generator. Fleets are registered at a fixed rate; each
// tenant polls its fleet's snapshot on a fixed period, staggered from
// registration, until the fleet is done, then reads its timeline and
// deletes it. /metrics is scraped once a second. Every figure is timed
// from the request's due time, so a stalled generator shows as latency.

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"spothost/internal/cloud"
	"spothost/internal/controlplane"
	"spothost/internal/fleet"
	"spothost/internal/market"
	"spothost/internal/obs"
	"spothost/internal/scenario"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

const (
	serveRate    = 10.0                  // fleet registrations per second
	servePoll    = 10 * time.Millisecond // snapshot poll period per tenant
	serveScrape  = time.Second           // /metrics scrape period
	serveTenants = 8
	// serveLateLimit bounds the generator's p99 lateness: past it the
	// generator, not the server, set the pace and the run is invalid.
	serveLateLimit = 250 * time.Millisecond
	// serveDrain bounds how long fleets may take to finish after the last
	// registration before the run fails.
	serveDrain = 60 * time.Second
	// serveReplaySeconds is how much of the schedule the traced run
	// replays against an in-process control plane.
	serveReplaySeconds = 8.0
	// serveSliceFleets and serveSliceRounds size the traced run's
	// single-goroutine slice replay.
	serveSliceFleets = 8
	serveSliceRounds = 5
)

var (
	serveStrategies = []string{"lowest-price", "diversified", "stability"}
	serveDaySlots   = []float64{7, 30, 30, 30}
	// serveUniverses is the fixed pool of market seeds fleets run on. A
	// fleet's cost depends strongly on its universe, and with a pool drawn
	// per seed the slowest universe alone moved p90 by half; the seed
	// draws the order, the mix and the poll phases instead.
	serveUniverses = []int64{1, 2, 3, 4}
)

// fleetSpec is one scheduled tenant fleet. Everything in it derives from
// the run's seed.
type fleetSpec struct {
	idx      int
	tenant   string
	name     string
	days     float64
	strategy string
	mseed    int64
	due      time.Duration // registration due time, from load start
	phase    time.Duration // offset of the poll grid from the due time
	sample   bool          // kept resident after the load for the stream check
}

func (f *fleetSpec) path() string { return "/v1/tenants/" + f.tenant + "/fleets/" + f.name }

func (f *fleetSpec) def() scenario.FleetDef { return scenario.FleetDef{Strategy: f.strategy} }

// serveSchedule draws the run's fleets from seed. Specs come in shuffled
// blocks holding every (horizon slot, strategy, universe) combination
// once, so each seed gets the same mix: a quarter 7-day and three
// quarters 30-day fleets. The uneven split keeps the
// median and p90 inside the 30-day cluster instead of on the boundary
// between the two horizons, where they would jump as the mix shifted.
// The first fleet of each (horizon, strategy) class is the stream-check
// sample.
func serveSchedule(seed int64, seconds float64) []fleetSpec {
	rng := rand.New(rand.NewSource(seed))
	type combo struct {
		days     float64
		strategy string
		mseed    int64
	}
	var block []combo
	for _, d := range serveDaySlots {
		for _, st := range serveStrategies {
			for _, ms := range serveUniverses {
				block = append(block, combo{d, st, ms})
			}
		}
	}
	n := int(math.Round(serveRate * seconds))
	specs := make([]fleetSpec, n)
	seen := map[string]bool{}
	for i := range specs {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		c := block[i%len(block)]
		f := fleetSpec{
			idx:      i,
			tenant:   fmt.Sprintf("tenant%d", i%serveTenants),
			name:     fmt.Sprintf("fleet%05d", i),
			days:     c.days,
			strategy: c.strategy,
			mseed:    c.mseed,
			due:      time.Duration(float64(i) / serveRate * float64(time.Second)),
			phase:    time.Duration(1 + rng.Int63n(int64(servePoll))),
		}
		class := fmt.Sprintf("%g/%s", f.days, f.strategy)
		if !seen[class] {
			seen[class] = true
			f.sample = true
		}
		specs[i] = f
	}
	return specs
}

// universeKeys lists the distinct (market seed, horizon) universes the
// schedule uses, in first-use order.
func universeKeys(specs []fleetSpec) []*fleetSpec {
	seen := map[string]bool{}
	var out []*fleetSpec
	for i := range specs {
		k := fmt.Sprintf("%d/%g", specs[i].mseed, specs[i].days)
		if !seen[k] {
			seen[k] = true
			out = append(out, &specs[i])
		}
	}
	return out
}

// planeClient is what the generator drives: spotserve over HTTP, or an
// in-process control plane for the traced replay. Each call returns the
// bytes it received (0 in process).
type planeClient interface {
	register(f *fleetSpec) (int, error)
	snapshot(f *fleetSpec) (state string, records, n int, err error)
	timeline(f *fleetSpec) (int, error)
	unregister(f *fleetSpec) error
	scrape() (queueDepth float64, n int, err error)
}

// ---- HTTP client ----

type httpClient struct {
	base  string
	hc    *http.Client
	dials atomic.Int64
}

// newHTTPClient caps the transport at conns connections to the server and
// counts every connection it opens.
func newHTTPClient(base string, conns int) *httpClient {
	c := &httpClient{base: base}
	d := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c.dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		},
	}
	return c
}

func (c *httpClient) do(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return data, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

type registration struct {
	Name  string            `json:"name"`
	Seed  int64             `json:"seed"`
	Days  float64           `json:"days"`
	Fleet scenario.FleetDef `json:"fleet"`
}

func (c *httpClient) register(f *fleetSpec) (int, error) {
	body, err := json.Marshal(registration{Name: f.name, Seed: f.mseed, Days: f.days, Fleet: f.def()})
	if err != nil {
		return 0, err
	}
	data, err := c.do(http.MethodPost, "/v1/tenants/"+f.tenant+"/fleets", body, http.StatusCreated)
	return len(data), err
}

// snapshotHead is the part of a snapshot the generator reads; the report
// that follows it is skipped unparsed.
type snapshotHead struct {
	State   string `json:"state"`
	Records int    `json:"records"`
	Error   string `json:"error"`
}

func parseSnapshotHead(data []byte) (snapshotHead, error) {
	var h snapshotHead
	head := data
	if i := bytes.Index(data, []byte(`,"report":`)); i >= 0 {
		head = append(append([]byte(nil), data[:i]...), '}')
	}
	err := json.Unmarshal(head, &h)
	return h, err
}

func (c *httpClient) snapshot(f *fleetSpec) (string, int, int, error) {
	data, err := c.do(http.MethodGet, f.path(), nil, http.StatusOK)
	if err != nil {
		return "", 0, len(data), err
	}
	h, err := parseSnapshotHead(data)
	if err != nil {
		return "", 0, len(data), fmt.Errorf("snapshot %s: %w", f.name, err)
	}
	if h.Error != "" {
		return h.State, h.Records, len(data), fmt.Errorf("fleet %s failed: %s", f.name, h.Error)
	}
	return h.State, h.Records, len(data), nil
}

func (c *httpClient) timeline(f *fleetSpec) (int, error) {
	data, err := c.do(http.MethodGet, f.path()+"/timeline", nil, http.StatusOK)
	return len(data), err
}

func (c *httpClient) unregister(f *fleetSpec) error {
	_, err := c.do(http.MethodDelete, f.path(), nil, http.StatusNoContent)
	return err
}

func (c *httpClient) scrape() (float64, int, error) {
	data, err := c.do(http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return 0, len(data), err
	}
	depth, _ := promSum(data, "spotserve_cp_shard_queue_depth{")
	return depth, len(data), nil
}

// promSum sums every sample whose line starts with prefix and reports
// whether any matched.
func promSum(data []byte, prefix string) (float64, bool) {
	var sum float64
	found := false
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			sum += v
			found = true
		}
	}
	return sum, found
}

// ---- in-process control plane ----

type inProcClient struct{ p *controlplane.Plane }

func (c inProcClient) register(f *fleetSpec) (int, error) {
	_, err := c.p.Register(f.tenant, f.name, controlplane.Spec{Seed: f.mseed, Days: f.days, Fleet: f.def()})
	return 0, err
}

func (c inProcClient) snapshot(f *fleetSpec) (string, int, int, error) {
	s, err := c.p.Snapshot(f.tenant, f.name)
	if err == nil && s.Error != "" {
		err = errors.New(s.Error)
	}
	return string(s.State), s.Records, 0, err
}

func (c inProcClient) timeline(f *fleetSpec) (int, error) {
	_, _, err := c.p.Timeline(f.tenant, f.name)
	return 0, err
}

func (c inProcClient) unregister(f *fleetSpec) error { return c.p.Unregister(f.tenant, f.name) }

func (c inProcClient) scrape() (float64, int, error) {
	st := c.p.Stats()
	var depth float64
	for _, sh := range st.Shards {
		depth += float64(sh.QueueDepth)
	}
	return depth, 0, nil
}

// ---- open-loop generator ----

type evKind int

const (
	evRegister evKind = iota
	evPoll
	evTimeline
	evDelete
	evScrape
	numKinds
)

var kindNames = [numKinds]string{"register", "snapshot", "timeline", "delete", "scrape"}

type event struct {
	due  time.Duration
	seq  int
	kind evKind
	f    *fleetState
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

type fleetState struct {
	spec        *fleetSpec
	firstRecord time.Duration // -1 until a snapshot shows a record
	done        time.Duration // -1 until a snapshot shows done
	failed      bool
}

// kindStats collects one request kind's figures.
type kindStats struct {
	fromDue []float64 // ms, response time minus due time
	service []float64 // ms, the call alone
	bytes   []float64
}

// loadGen drives a planeClient through the schedule with `workers`
// request-issuing goroutines pulling due events from one queue.
type loadGen struct {
	c        planeClient
	workers  int
	tr       *tracer
	traceIdx func(idx int) bool // which fleets' requests get spans

	start time.Time
	ctx   context.Context

	mu        sync.Mutex
	q         eventHeap
	seq       int
	changed   chan struct{}
	remaining int
	stats     [numKinds]kindStats
	late      []float64 // ms, request start minus due time
	depths    []float64
	attempted int
	failed    int
	firstErr  error
	fleets    []*fleetState
	lastDone  time.Duration
}

func newLoadGen(c planeClient, specs []fleetSpec, workers int) *loadGen {
	g := &loadGen{c: c, workers: workers, changed: make(chan struct{}), remaining: len(specs)}
	for i := range specs {
		fs := &fleetState{spec: &specs[i], firstRecord: -1, done: -1}
		g.fleets = append(g.fleets, fs)
		g.pushLocked(event{due: specs[i].due, kind: evRegister, f: fs})
	}
	g.pushLocked(event{due: 0, kind: evScrape})
	return g
}

func (g *loadGen) pushLocked(e event) {
	g.seq++
	e.seq = g.seq
	heap.Push(&g.q, e)
	close(g.changed)
	g.changed = make(chan struct{})
}

// run drives the schedule to completion: every fleet done, read and
// deleted (or failed). It fails when the drain deadline passes first.
func (g *loadGen) run(deadline time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	g.ctx = ctx
	g.start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < g.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.worker()
		}()
	}
	wg.Wait()
	if g.remaining > 0 {
		return fmt.Errorf("%d fleets unfinished after %v", g.remaining, deadline)
	}
	return nil
}

func (g *loadGen) now() time.Duration { return time.Since(g.start) }

// next blocks until an event is due and pops it; ok=false ends the worker.
func (g *loadGen) next() (event, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.remaining == 0 || g.ctx.Err() != nil {
			return event{}, false
		}
		var t *time.Timer
		var wait <-chan time.Time
		if len(g.q) > 0 {
			d := g.q[0].due - g.now()
			if d <= 0 {
				return heap.Pop(&g.q).(event), true
			}
			t = time.NewTimer(d)
			wait = t.C
		}
		ch := g.changed
		g.mu.Unlock()
		select {
		case <-wait:
		case <-ch:
		case <-g.ctx.Done():
		}
		if t != nil {
			t.Stop()
		}
		g.mu.Lock()
	}
}

func (g *loadGen) worker() {
	for {
		ev, ok := g.next()
		if !ok {
			return
		}
		g.handle(ev)
	}
}

// nextPoll is the first point of the fleet's poll grid at or after t.
func nextPoll(f *fleetSpec, t time.Duration) time.Duration {
	base := f.due + f.phase
	if t <= base {
		return base
	}
	k := (t - base + servePoll - 1) / servePoll
	return base + k*servePoll
}

func (g *loadGen) handle(ev event) {
	startAt := g.now()
	var span int
	if ev.f != nil && g.traceIdx != nil && g.traceIdx(ev.f.spec.idx) {
		span = g.tr.begin("httpapi."+kindNames[ev.kind], 0, ev.f.spec.name)
	}
	var (
		n       int
		err     error
		state   string
		records int
		depth   float64
	)
	switch ev.kind {
	case evRegister:
		n, err = g.c.register(ev.f.spec)
	case evPoll:
		state, records, n, err = g.c.snapshot(ev.f.spec)
	case evTimeline:
		n, err = g.c.timeline(ev.f.spec)
	case evDelete:
		err = g.c.unregister(ev.f.spec)
	case evScrape:
		depth, n, err = g.c.scrape()
	}
	endAt := g.now()
	g.tr.end(span)

	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	g.late = append(g.late, ms(startAt-ev.due))
	st := &g.stats[ev.kind]
	st.fromDue = append(st.fromDue, ms(endAt-ev.due))
	st.service = append(st.service, ms(endAt-startAt))
	st.bytes = append(st.bytes, float64(n))
	if err != nil {
		g.failed++
		if g.firstErr == nil {
			g.firstErr = err
		}
		if ev.f != nil {
			g.finishLocked(ev.f, true)
		}
		return
	}
	f := ev.f
	switch ev.kind {
	case evRegister:
		g.pushLocked(event{due: nextPoll(f.spec, endAt), kind: evPoll, f: f})
	case evPoll:
		if records > 0 && f.firstRecord < 0 {
			f.firstRecord = endAt - f.spec.due
		}
		switch controlplane.State(state) {
		case controlplane.StateDone:
			f.done = endAt - f.spec.due
			if endAt > g.lastDone {
				g.lastDone = endAt
			}
			g.pushLocked(event{due: endAt, kind: evTimeline, f: f})
		case controlplane.StateFailed:
			g.finishLocked(f, true)
		default:
			g.pushLocked(event{due: nextPoll(f.spec, endAt+1), kind: evPoll, f: f})
		}
	case evTimeline:
		if f.spec.sample {
			g.finishLocked(f, false) // deleted after the stream check
		} else {
			g.pushLocked(event{due: endAt, kind: evDelete, f: f})
		}
	case evDelete:
		g.finishLocked(f, false)
	case evScrape:
		g.depths = append(g.depths, depth)
		g.pushLocked(event{due: ev.due + serveScrape, kind: evScrape})
	}
}

func (g *loadGen) finishLocked(f *fleetState, failed bool) {
	f.failed = failed
	g.remaining--
	if g.remaining == 0 {
		close(g.changed) // wake idle workers so they exit
		g.changed = make(chan struct{})
	}
}

// ---- server process ----

type server struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startServer launches spotserve on a free loopback port and waits for
// its first healthy /healthz.
func startServer(bin string) (*server, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-addr", addr)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start spotserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()

	hc := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return nil, fmt.Errorf("spotserve exited during start-up: %v", err)
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, errors.New("spotserve never became healthy")
}

// stop sends SIGTERM, waits for the process to exit, and kills it if the
// graceful shutdown takes too long.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// warmServer registers one fleet per universe key, waits until all are
// done and deletes them, so every universe the schedule uses is cached.
func warmServer(base string, keys []*fleetSpec) error {
	c := newHTTPClient(base, 1)
	defer c.hc.CloseIdleConnections()
	warm := make([]fleetSpec, len(keys))
	for i, k := range keys {
		warm[i] = fleetSpec{tenant: "warmup", name: fmt.Sprintf("warm%d", i), days: k.days, strategy: "lowest-price", mseed: k.mseed}
		if _, err := c.register(&warm[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for i := range warm {
		for {
			state, _, _, err := c.snapshot(&warm[i])
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if controlplane.State(state) == controlplane.StateDone {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := c.unregister(&warm[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// ---- standalone reference ----

// buildSet resolves a fleet's universe the way the control plane does.
func buildSet(cache *market.Cache, f *fleetSpec) (*market.Set, error) {
	mcfg := market.DefaultConfig(f.mseed)
	mcfg.Horizon = f.days * sim.Day
	types, err := f.def().TypeSpecs()
	if err != nil {
		return nil, err
	}
	if types != nil {
		mcfg.Types = types
	}
	return cache.Generate(mcfg)
}

// standaloneRecord is the terminal stream record a standalone fleet.Run
// of the spec produces, encoded as the control plane encodes it.
func standaloneRecord(cache *market.Cache, f *fleetSpec) ([]byte, error) {
	set, err := buildSet(cache, f)
	if err != nil {
		return nil, err
	}
	horizon := f.days * sim.Day
	fcfg, err := f.def().Config(horizon, f.mseed)
	if err != nil {
		return nil, err
	}
	rep, err := fleet.Run(set, cloud.DefaultParams(f.mseed), fcfg, horizon)
	if err != nil {
		return nil, err
	}
	end := math.Min(horizon, set.Horizon())
	rec := controlplane.StreamRecord{
		Tenant: f.tenant, Name: f.name,
		Day:      int(math.Floor(end/sim.Day + 1e-9)),
		SimHours: end / sim.Hour,
		Done:     true,
		Report:   &rep,
	}
	line, err := json.Marshal(rec)
	return append(line, '\n'), err
}

// checkStreams replays each sample fleet's /stream, compares its terminal
// record with a standalone run, and deletes the fleet.
func checkStreams(c *httpClient, specs []fleetSpec) error {
	cache := market.NewCache()
	for i := range specs {
		f := &specs[i]
		if !f.sample {
			continue
		}
		data, err := c.do(http.MethodGet, f.path()+"/stream", nil, http.StatusOK)
		if err != nil {
			return err
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		var last []byte
		for _, l := range lines {
			if len(l) > 0 {
				last = l
			}
		}
		want, err := standaloneRecord(cache, f)
		if err != nil {
			return fmt.Errorf("standalone run of %s: %w", f.name, err)
		}
		if !bytes.Equal(last, want) {
			return fmt.Errorf("fleet %s: terminal stream record differs from a standalone fleet.Run (%d vs %d bytes)", f.name, len(last), len(want))
		}
		if err := c.unregister(f); err != nil {
			return err
		}
	}
	return nil
}

// ---- the workload ----

func runServe(o opts) (*outcome, error) {
	if o.serveBin == "" {
		return nil, errors.New("--spotserve is required")
	}
	specs := serveSchedule(o.seed, o.seconds)
	keys := universeKeys(specs)

	var srv *server
	stopPrev := func() {
		if srv != nil {
			srv.stop()
			srv = nil
		}
	}
	setupS, err := setupMetric(o.setupCal, stopPrev, func() error {
		s, err := startServer(o.serveBin)
		if err != nil {
			return err
		}
		srv = s
		return warmServer(s.base, keys)
	})
	if srv != nil {
		defer srv.stop()
	}
	if err != nil {
		return nil, err
	}

	client := newHTTPClient(srv.base, o.workers)
	defer client.hc.CloseIdleConnections()
	// The generator's caps, asserted before any load: at most nproc
	// request-issuing goroutines and connections.
	if n := runtime.NumCPU(); o.workers > n || client.hc.Transport.(*http.Transport).MaxConnsPerHost > n {
		return nil, fmt.Errorf("generator caps exceed nproc=%d", n)
	}
	g := newLoadGen(client, specs, o.workers)
	var tr *tracer
	if o.traced {
		tr = newTracer()
		g.tr = tr
		g.traceIdx = func(idx int) bool { return idx%2 == 1 }
	}
	cpu0, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	loadErr := g.run(time.Duration(o.seconds*float64(time.Second)) + serveDrain)
	rss, err := peakRSSMB(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	serverUtil := (cpu1 - cpu0) / g.now().Seconds() / float64(o.workers)

	out := &outcome{attempted: g.attempted, failed: g.failed}
	out.checkErr = serveChecks(g, client, specs, loadErr)

	var toDone, first []float64
	for _, f := range g.fleets {
		if f.done >= 0 {
			toDone = append(toDone, ms(f.done))
		}
		if f.firstRecord >= 0 {
			first = append(first, ms(f.firstRecord))
		}
	}
	throughput := float64(len(toDone)) / g.lastDone.Seconds()
	// The latencies are scaled by the host speed measured in set-up, just
	// before the load with the server idle; the completion rate is bound
	// by the offered rate and is not scaled (calib.go).
	out.e2e = e2eMetrics(o, o.setupCal.slowdown(), 1, setupS, rss, throughput, toDone)
	snap := g.stats[evPoll].fromDue
	out.named = []namedValue{
		{"setup_s", setupS, "s", ""},
		{"peak_rss_mb", rss, "MB", "spotserve VmHWM"},
		{"failed_frac", float64(g.failed) / float64(max(g.attempted, 1)), "ratio", fmt.Sprintf("%d of %d requests", g.failed, g.attempted)},
		{"register_to_done_p50_ms", quantile(toDone, 0.5), "ms", fmt.Sprintf("n=%d", len(toDone))},
		{"register_to_done_p99_ms", quantile(toDone, 0.99), "ms", ""},
		{"first_record_p50_ms", quantile(first, 0.5), "ms", fmt.Sprintf("n=%d", len(first))},
		{"first_record_p99_ms", quantile(first, 0.99), "ms", ""},
		{"snapshot_p50_ms", quantile(snap, 0.5), "ms", fmt.Sprintf("n=%d", len(snap))},
		{"snapshot_p99_ms", quantile(snap, 0.99), "ms", ""},
		{"timeline_p50_ms", median(g.stats[evTimeline].fromDue), "ms", fmt.Sprintf("n=%d", len(g.stats[evTimeline].fromDue))},
		{"scrape_p50_ms", median(g.stats[evScrape].fromDue), "ms", fmt.Sprintf("n=%d", len(g.stats[evScrape].fromDue))},
		{"fleets_done_per_s", throughput, "1/s", fmt.Sprintf("offered %.0f/s", serveRate)},
		{"server_cpu_util", serverUtil, "ratio", fmt.Sprintf("spotserve CPU over %d cores", o.workers)},
		{"generator_late_p50_ms", median(g.late), "ms", ""},
		{"generator_late_p99_ms", quantile(g.late, 0.99), "ms", fmt.Sprintf("limit %v", serveLateLimit)},
	}
	if !o.traced {
		return out, nil
	}

	vals, err := serveLayers(o, g, client, specs, keys, tr)
	if err != nil {
		return nil, err
	}
	out.layers = layerSet(vals)
	return out, nil
}

// serveChecks validates the load: every fleet done, no failed request,
// caps respected, generator on time, and the sample's streams identical to
// standalone runs.
func serveChecks(g *loadGen, c *httpClient, specs []fleetSpec, loadErr error) error {
	if loadErr != nil {
		return loadErr
	}
	if g.failed > 0 {
		return fmt.Errorf("%d of %d requests failed; first: %v", g.failed, g.attempted, g.firstErr)
	}
	for _, f := range g.fleets {
		if f.done < 0 || f.failed {
			return fmt.Errorf("fleet %s never reached done", f.spec.name)
		}
	}
	if d := c.dials.Load(); d > int64(g.workers) {
		return fmt.Errorf("generator opened %d connections, cap is %d", d, g.workers)
	}
	if p99 := quantile(g.late, 0.99); p99 > ms(serveLateLimit) {
		return fmt.Errorf("generator p99 lateness %.1f ms exceeds the %v limit: run invalid", p99, serveLateLimit)
	}
	return checkStreams(c, specs)
}

// serveLayers is the traced run's per-layer breakdown: client-side HTTP
// figures from the load just run, an in-process control-plane replay of
// the schedule's first seconds, and a single-goroutine replay of the slice
// path a shard runs for each fleet.
func serveLayers(o opts, g *loadGen, client *httpClient, specs []fleetSpec, keys []*fleetSpec, tr *tracer) (map[string]float64, error) {
	vals := map[string]float64{}

	// Server-side cache misses: one per universe key when warm-up worked.
	data, err := client.do(http.MethodGet, "/metrics", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	vals["market.cache_misses"], _ = promSum(data, "spotserve_market_cache_misses_total ")
	vals["controlplane.queue_depth_mean"] = mean(g.depths)
	vals["controlplane.queue_depth_max"] = quantile(g.depths, 1)
	vals["httpapi.snapshot_kb"] = mean(g.stats[evPoll].bytes) / 1024
	vals["httpapi.timeline_kb"] = mean(g.stats[evTimeline].bytes) / 1024
	vals["httpapi.scrape_kb"] = mean(g.stats[evScrape].bytes) / 1024
	vals["bench.generator_lateness_p99_ms"] = quantile(g.late, 0.99)

	// Tracing overhead: spans were recorded for odd fleets only.
	var tracedDone, plainDone []float64
	for _, f := range g.fleets {
		if f.done < 0 {
			continue
		}
		if f.spec.idx%2 == 1 {
			tracedDone = append(tracedDone, ms(f.done))
		} else {
			plainDone = append(plainDone, ms(f.done))
		}
	}
	vals["bench.tracing_overhead_frac"] = median(tracedDone)/median(plainDone) - 1

	// In-process control-plane replay of the schedule's first seconds.
	n := min(len(specs), int(serveRate*serveReplaySeconds))
	replay := append([]fleetSpec(nil), specs[:n]...)
	for i := range replay {
		replay[i].sample = false
	}
	for _, k := range keys {
		if _, err := buildSet(market.SharedCache(), k); err != nil {
			return nil, err
		}
	}
	plane := controlplane.New(controlplane.Config{
		MaxDays: 90,
		Trace:   trace.NewHistogramCollector(),
		Obs:     obs.NewAggregateCollector(obs.Config{}),
	})
	pg := newLoadGen(inProcClient{plane}, replay, o.workers)
	err = pg.run(time.Duration(serveReplaySeconds*float64(time.Second)) + serveDrain)
	plane.Close()
	if err != nil {
		return nil, fmt.Errorf("in-process replay: %w", err)
	}
	if pg.failed > 0 {
		return nil, fmt.Errorf("in-process replay: %d failed calls; first: %v", pg.failed, pg.firstErr)
	}
	planeKey := [numKinds]string{"register", "snapshot", "timeline", "unregister", "stats"}
	for k := evKind(0); k < numKinds; k++ {
		inProc := median(pg.stats[k].service) * 1000
		vals["controlplane."+planeKey[k]+"_us"] = inProc
		vals["httpapi."+kindNames[k]+"_self_us"] = median(g.stats[k].service)*1000 - inProc
	}

	sv, root, err := sliceReplay(specs, tr)
	if err != nil {
		return nil, err
	}
	for k, v := range sv {
		vals[k] = v
	}
	vals["bench.self_time_coverage"] = printSelfTable(tr, root, "serve slice replay")
	vals["bench.traced_total_ms"] = ms(tr.spans[root-1].dur())
	if path, err := tr.write(o.outDir, fmt.Sprintf("spans-serve-%d.jsonl", o.seed)); err == nil {
		fmt.Fprintf(os.Stderr, "spans written to %s\n", path)
	} else {
		return nil, err
	}
	return vals, nil
}

// sliceMode is one recorder configuration of the slice replay.
type sliceMode struct {
	name       string
	trace, obs bool
}

// sliceReplay replays the shard's slice loop for the schedule's first
// fleets on one goroutine: build, then per simulated day Step, telemetry
// snapshot and ledger tail, Report and the stream record's encoding.
// Rounds alternate three recorder modes — as the server runs (histogram
// trace + telemetry), telemetry off, trace off — so obs.overhead_frac and
// trace.overhead_frac come from interleaved samples with their spread. The
// first server-mode pass is traced; its root span is returned.
func sliceReplay(specs []fleetSpec, tr *tracer) (map[string]float64, int, error) {
	fleets := specs[:min(len(specs), serveSliceFleets)]
	modes := []sliceMode{{"server", true, true}, {"no-obs", true, false}, {"no-trace", false, true}}
	vals := map[string]float64{}

	// Cold generation of each distinct universe, for market.generate_ms.
	root := tr.begin("bench.slice_replay", 0, "")
	cache := market.NewCache()
	var gen []float64
	for i := range fleets {
		f := &fleets[i]
		before := cache.Stats().Misses
		t0 := time.Now()
		id := tr.begin("market.generate", root, f.name)
		if _, err := buildSet(cache, f); err != nil {
			return nil, 0, err
		}
		tr.end(id)
		if cache.Stats().Misses > before {
			gen = append(gen, ms(time.Since(t0)))
		}
	}
	vals["market.generate_ms"] = median(gen)

	var build, step, report, marshal, timeline, ledger []float64
	var days, slices float64
	modeTime := map[string][]float64{}
	for r := 0; r < serveSliceRounds; r++ {
		for j := range modes {
			m := modes[(r+j)%len(modes)]
			traced := r == 0 && m.name == "server"
			var parent int
			if traced {
				parent = root
			}
			t0 := time.Now()
			for i := range fleets {
				f := &fleets[i]
				p := func(name string, fn func()) time.Duration {
					id := 0
					if traced {
						id = tr.begin(name, parent, f.name)
					}
					s := time.Now()
					fn()
					d := time.Since(s)
					tr.end(id)
					return d
				}
				set, err := buildSet(cache, f)
				if err != nil {
					return nil, 0, err
				}
				horizon := f.days * sim.Day
				var fcfg fleet.Config
				p("scenario.config", func() { fcfg, err = f.def().Config(horizon, f.mseed) })
				if err != nil {
					return nil, 0, err
				}
				var rec *trace.Recorder
				var ob *obs.Recorder
				tcol := trace.NewHistogramCollector()
				ocol := obs.NewAggregateCollector(obs.Config{})
				if m.trace {
					rec = tcol.Run(f.name)
				}
				if m.obs {
					ob = ocol.Run(f.name)
				}
				var s *fleet.Sim
				d := p("fleet.build", func() {
					s, err = fleet.NewSimObs(set, cloud.DefaultParams(f.mseed), fcfg, horizon, rec, ob)
				})
				if err != nil {
					return nil, 0, err
				}
				if m.name == "server" {
					build = append(build, ms(d))
				}
				ledgerN := 0
				for done := false; !done; {
					from := s.Now()
					d = p("fleet.step", func() { done, err = s.Step(context.Background(), from+sim.Day) })
					if err != nil {
						return nil, 0, err
					}
					if m.name == "server" {
						step = append(step, ms(d))
						days += (s.Now() - from) / sim.Day
						slices++
					}
					if ob != nil {
						d = p("obs.timeline", func() { _ = s.Timeline() })
						d2 := p("obs.ledger", func() {
							ds := ob.Ledger()
							for _, dec := range ds[ledgerN:] {
								if _, err := dec.AppendNDJSON(nil); err != nil {
									panic(err)
								}
							}
							ledgerN = len(ds)
						})
						if m.name == "server" {
							timeline = append(timeline, us(d))
							ledger = append(ledger, us(d2))
						}
					}
					var rep fleet.Report
					d = p("fleet.report", func() { rep = s.Report() })
					now := s.Now()
					d2 := p("controlplane.marshal", func() {
						_, err = json.Marshal(controlplane.StreamRecord{
							Tenant: f.tenant, Name: f.name,
							Day:      int(math.Floor(now/sim.Day + 1e-9)),
							SimHours: now / sim.Hour, Done: done, Report: &rep,
						})
					})
					if err != nil {
						return nil, 0, err
					}
					if m.name == "server" {
						report = append(report, us(d))
						marshal = append(marshal, us(d2))
					}
				}
				if m.name == "server" && r == 0 {
					vals["obs.ledger_lines_per_fleet"] += float64(ledgerN) / float64(len(fleets))
				}
				if rec != nil {
					p("trace.done", func() { tcol.Done(rec) })
				}
				if ob != nil {
					p("obs.done", func() { ocol.Done(ob) })
				}
			}
			modeTime[m.name] = append(modeTime[m.name], ms(time.Since(t0)))
			if traced {
				tr.end(root)
			}
		}
	}
	var obsRatio, traceRatio []float64
	for r := 0; r < serveSliceRounds; r++ {
		obsRatio = append(obsRatio, modeTime["server"][r]/modeTime["no-obs"][r]-1)
		traceRatio = append(traceRatio, modeTime["server"][r]/modeTime["no-trace"][r]-1)
	}
	vals["fleet.build_ms"] = median(build)
	vals["fleet.step_ms_per_day"] = mean(step) * slices / days
	vals["fleet.report_us"] = median(report)
	vals["controlplane.marshal_us_per_slice"] = mean(marshal)
	vals["obs.timeline_us_per_slice"] = mean(timeline) + mean(ledger)
	vals["obs.overhead_frac"] = median(obsRatio)
	vals["obs.overhead_frac_iqr"] = quantile(obsRatio, 0.75) - quantile(obsRatio, 0.25)
	vals["trace.overhead_frac"] = median(traceRatio)
	vals["trace.overhead_frac_iqr"] = quantile(traceRatio, 0.75) - quantile(traceRatio, 0.25)
	return vals, root, nil
}
