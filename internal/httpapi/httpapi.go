// Package httpapi exposes the spothost simulators over HTTP, so
// dashboards and notebooks can run hosting studies without linking Go
// code:
//
//	GET  /healthz               liveness
//	GET  /metrics               serving + control-plane + market-cache metrics (Prometheus text)
//	GET  /v1/experiments        list the paper's tables/figures
//	POST /v1/experiments/{name} run one experiment  {"quick": true, "seeds": 2, "days": 10}
//	POST /v1/scenario           run a declarative scenario: services and/or fleets (internal/scenario schema)
//
// and the multi-tenant control plane (internal/controlplane), where fleets
// are registered once and advanced by a resident sharded runtime instead
// of blocking a request for the whole run:
//
//	POST   /v1/tenants/{tenant}/fleets               register a fleet  {"name": ..., "seed": ..., "days": ..., "fleet": {...}}
//	GET    /v1/tenants/{tenant}/fleets               list the tenant's fleets
//	GET    /v1/tenants/{tenant}/fleets/{name}          snapshot one fleet's progress and report
//	DELETE /v1/tenants/{tenant}/fleets/{name}          unregister
//	GET    /v1/tenants/{tenant}/fleets/{name}/stream   NDJSON: one report record per simulated day
//	GET    /v1/tenants/{tenant}/fleets/{name}/timeline telemetry timeline (JSON); ?ledger=1 streams the decision ledger (NDJSON)
//
// Responses are JSON; experiment responses carry both the rendered text
// table and, where available, the CSV series.
//
// The serving layer is admission-controlled and cancelable: at most
// Config.MaxConcurrent simulation runs execute at once (excess requests
// get 429 with a Retry-After derived from the control plane's measured
// backpressure), each run inherits the request's context (bounded by
// Config.RunTimeout when set), and a client disconnect aborts the
// underlying simulation within one engine cancellation-poll batch,
// freeing its pool workers. Oversized request bodies (over 1 MiB) get
// 413; API horizons are capped at MaxRequestDays with a 400.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"spothost/internal/controlplane"
	"spothost/internal/experiments"
	"spothost/internal/market"
	"spothost/internal/metrics"
	"spothost/internal/obs"
	"spothost/internal/scenario"
	"spothost/internal/sim"
	"spothost/internal/trace"
)

// Request-validation bounds, enforced with 400 responses rather than
// silently falling back to defaults.
const (
	// MaxRequestSeeds caps the per-request seed count.
	MaxRequestSeeds = 16
	// MaxRequestDays caps the per-request horizon: 90 days is three times
	// the paper's month-long traces and keeps a single request's work
	// bounded.
	MaxRequestDays = 90
)

// DefaultMaxConcurrent is the admission-control bound used when
// Config.MaxConcurrent is unset. Each admitted run already fans its
// (config, seed) cells out over every CPU, so a small number of
// concurrent runs saturates the machine.
const DefaultMaxConcurrent = 2

// Config tunes the serving layer.
type Config struct {
	// MaxConcurrent bounds simultaneously executing experiment/scenario
	// runs; requests beyond it receive 429 with a Retry-After header.
	// Zero or negative means DefaultMaxConcurrent.
	MaxConcurrent int
	// RunTimeout bounds one run's execution; a run exceeding it is
	// canceled and reported as 504. Zero means no server-side deadline
	// (the client's disconnect still cancels).
	RunTimeout time.Duration
	// Logger receives one structured line per request and one per run
	// outcome. Nil discards logs.
	Logger *log.Logger

	// Shards, MaxFleets and TenantQuota tune the resident control plane
	// behind /v1/tenants (see internal/controlplane). Zero means the
	// control plane's defaults.
	Shards      int
	MaxFleets   int
	TenantQuota int
}

// Server is the API's handler: a mux wrapped with per-request logging,
// run admission control, and serving metrics.
type Server struct {
	cfg     Config
	logger  *log.Logger
	sem     chan struct{}
	serving metrics.Serving
	// traces aggregates simulation histograms (downtime by migration
	// class, migration latency, spot prices paid) across every run the
	// server executes; spans are discarded as runs finish, so memory stays
	// bounded. Rendered into GET /metrics alongside the serving counters.
	traces *trace.Collector
	// obsCol aggregates simulation telemetry (decision/alert/cost totals)
	// across control-plane fleet runs; recorders are folded into scalar
	// totals as runs finish, so memory stays bounded. Per-fleet timelines
	// are served from the control plane's published state instead.
	obsCol *obs.Collector
	// plane is the resident multi-tenant fleet runtime behind /v1/tenants.
	plane *controlplane.Plane
	mux   *http.ServeMux

	// runExperiment is a seam for tests to substitute a controllable run.
	runExperiment func(ctx context.Context, entry experiments.Entry, opts experiments.Options) (experiments.Renderer, error)
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = DefaultMaxConcurrent
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	s := &Server{
		cfg:    cfg,
		logger: logger,
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		traces: trace.NewHistogramCollector(),
		obsCol: obs.NewAggregateCollector(obs.Config{}),
		runExperiment: func(ctx context.Context, entry experiments.Entry, opts experiments.Options) (experiments.Renderer, error) {
			opts.Context = ctx
			return entry.Run(opts)
		},
	}
	s.plane = controlplane.New(controlplane.Config{
		Shards:      cfg.Shards,
		MaxFleets:   cfg.MaxFleets,
		TenantQuota: cfg.TenantQuota,
		MaxDays:     MaxRequestDays,
		Trace:       s.traces,
		Obs:         s.obsCol,
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/experiments", s.handleList)
	mux.HandleFunc("/v1/experiments/", s.handleExperiment)
	mux.HandleFunc("/v1/scenario", s.handleScenario)
	mux.HandleFunc("/v1/tenants/", s.handleTenants)
	s.mux = mux
	return s
}

// Close stops the control plane's shard runtime: in-flight fleet slices
// are canceled and blocked stream readers released. Read-only routes stay
// usable; registrations are refused afterwards.
func (s *Server) Close() { s.plane.Close() }

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so streaming handlers behind the
// logging wrapper still see an http.Flusher: embedding alone would hide
// the underlying writer's optional interfaces.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ServeHTTP dispatches to the mux with per-request structured logging.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(sw, r)
	s.logger.Printf("http method=%s path=%s status=%d dur=%s",
		r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Millisecond))
}

// acquire claims an admission slot without blocking. It reports false —
// and records the rejection — when MaxConcurrent runs are already in
// flight.
func (s *Server) acquire() bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
		s.serving.Reject()
		return false
	}
}

func (s *Server) release() { <-s.sem }

// rejectBusy answers an admission rejection: 429 with a Retry-After
// derived from the control plane's measured per-slice wall time and queue
// depth — the live backpressure signal — rather than a constant.
func (s *Server) rejectBusy(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.plane.RetryAfterSeconds()))
	writeError(w, http.StatusTooManyRequests,
		"at most %d concurrent runs; retry shortly", s.cfg.MaxConcurrent)
}

// runCtx derives a run's context from the request: the client's context
// (so a disconnect cancels the simulation) bounded by RunTimeout.
func (s *Server) runCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.RunTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.RunTimeout)
	}
	return context.WithCancel(r.Context())
}

// ExperimentRequest tunes one experiment run.
type ExperimentRequest struct {
	Quick bool    `json:"quick"`
	Seeds int     `json:"seeds"` // 0 = default; 1..MaxRequestSeeds
	Days  float64 `json:"days"`  // 0 = default; up to MaxRequestDays
}

// ExperimentResponse is the run outcome.
type ExperimentResponse struct {
	Name string `json:"name"`
	Text string `json:"text"`
	CSV  string `json:"csv,omitempty"`
}

// ServiceResponse serializes one scenario service outcome.
type ServiceResponse struct {
	Name           string  `json:"name"`
	NormalizedCost float64 `json:"normalized_cost"`
	Unavailability float64 `json:"unavailability"`
	Cost           float64 `json:"cost"`
	BaselineCost   float64 `json:"baseline_cost"`
	Forced         int     `json:"forced_migrations"`
	Planned        int     `json:"planned_migrations"`
	Reverse        int     `json:"reverse_migrations"`
	DowntimeSec    float64 `json:"downtime_seconds"`
	NetBenefit     float64 `json:"net_benefit,omitempty"`
	WorthIt        *bool   `json:"worth_it,omitempty"`
}

// FleetResponse serializes one scenario fleet outcome.
type FleetResponse struct {
	Name                string  `json:"name"`
	Strategy            string  `json:"strategy"`
	NormalizedCost      float64 `json:"normalized_cost"`
	Cost                float64 `json:"cost"`
	BaselineCost        float64 `json:"baseline_cost"`
	CapacityShortfall   float64 `json:"capacity_shortfall"`
	PeakTarget          int     `json:"peak_target"`
	ReplicasLost        int     `json:"replicas_lost"`
	MaxSimultaneousLoss int     `json:"max_simultaneous_loss"`
	OnDemandFallbacks   int     `json:"on_demand_fallbacks"`
	ReverseReplacements int     `json:"reverse_replacements"`
}

// ScenarioResponse is the portfolio outcome.
type ScenarioResponse struct {
	Services       []ServiceResponse `json:"services"`
	Fleets         []FleetResponse   `json:"fleets,omitempty"`
	TotalCost      float64           `json:"total_cost"`
	NormalizedCost float64           `json:"normalized_cost"`
	WorstService   string            `json:"worst_service"`
	WorstUnavail   float64           `json:"worst_unavailability"`
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeRunError maps a run's failure to a response: cancellations caused
// by the client's disconnect get 499 (the conventional "client closed
// request" code — the write is usually moot, the connection is gone),
// server-side deadline expiry gets 504, anything else 500.
func writeRunError(w http.ResponseWriter, what string, err error) {
	switch {
	case errors.Is(err, context.Canceled):
		writeError(w, 499, "%s canceled", what)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "%s exceeded the run timeout", what)
	default:
		writeError(w, http.StatusInternalServerError, "%s failed: %v", what, err)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.serving.Snapshot().WritePrometheus(w, "spotserve")
	s.plane.Stats().WritePrometheus(w, "spotserve")
	s.traces.WritePrometheus(w, "spotserve")
	s.obsCol.WritePrometheus(w, "spotserve")
	cs := market.SharedCache().Stats()
	fmt.Fprintf(w, "# HELP spotserve_market_cache_hits_total Universe lookups served from cache.\n"+
		"# TYPE spotserve_market_cache_hits_total counter\nspotserve_market_cache_hits_total %d\n", cs.Hits)
	fmt.Fprintf(w, "# HELP spotserve_market_cache_misses_total Universe lookups that had to generate.\n"+
		"# TYPE spotserve_market_cache_misses_total counter\nspotserve_market_cache_misses_total %d\n", cs.Misses)
	fmt.Fprintf(w, "# HELP spotserve_market_cache_universes Distinct universes resident in cache.\n"+
		"# TYPE spotserve_market_cache_universes gauge\nspotserve_market_cache_universes %d\n", cs.Universes)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	names := []string{}
	for _, e := range experiments.All() {
		names = append(names, e.Name)
	}
	writeJSON(w, http.StatusOK, map[string][]string{"experiments": names})
}

// writeBodyError maps a request-body failure to a response: a body over
// the MaxBytesReader limit is 413 (and the reader has already told the
// server to close the connection), anything else 400.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge,
			"request body exceeds %d bytes", mbe.Limit)
		return
	}
	writeError(w, http.StatusBadRequest, "%v", err)
}

// decodeExperimentRequest parses and validates the request body. An empty
// body means defaults; truncated or malformed JSON and out-of-range
// fields are rejected. The writer is handed to MaxBytesReader so an
// oversized body also closes the connection.
func decodeExperimentRequest(w http.ResponseWriter, r *http.Request) (ExperimentRequest, error) {
	var req ExperimentRequest
	if r.Body == nil {
		return req, nil
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req)
	switch {
	case err == nil, errors.Is(err, io.EOF): // EOF: empty body = defaults
	case errors.Is(err, io.ErrUnexpectedEOF):
		return req, fmt.Errorf("truncated JSON body")
	default:
		return req, fmt.Errorf("bad request body: %w", err)
	}
	if req.Seeds < 0 || req.Seeds > MaxRequestSeeds {
		return req, fmt.Errorf("seeds must be between 0 and %d, got %d", MaxRequestSeeds, req.Seeds)
	}
	if req.Days < 0 || req.Days > MaxRequestDays {
		return req, fmt.Errorf("days must be between 0 and %d, got %g", MaxRequestDays, req.Days)
	}
	return req, nil
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/v1/experiments/")
	entry, ok := experiments.Find(name)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown experiment %q", name)
		return
	}
	req, err := decodeExperimentRequest(w, r)
	if err != nil {
		writeBodyError(w, err)
		return
	}
	opts := experiments.Defaults()
	if req.Quick {
		opts = experiments.Quick()
	}
	if req.Seeds > 0 {
		opts.Seeds = opts.Seeds[:0]
		for i := 0; i < req.Seeds; i++ {
			opts.Seeds = append(opts.Seeds, int64(11*(i+1)))
		}
	}
	if req.Days > 0 {
		opts.Horizon = req.Days * sim.Day
	}

	if !s.acquire() {
		s.rejectBusy(w)
		return
	}
	defer s.release()
	ctx, cancel := s.runCtx(r)
	defer cancel()

	kind := "experiment"
	if name == "fleet" {
		kind = "fleet"
	}
	opts.Trace = s.traces.Scope(name)
	done := s.serving.StartKind(kind)
	start := time.Now()
	res, err := s.runExperiment(ctx, entry, opts)
	done(err)
	s.logger.Printf("run experiment=%s dur=%s err=%v",
		name, time.Since(start).Round(time.Millisecond), err)
	if err != nil {
		writeRunError(w, "experiment", err)
		return
	}
	resp := ExperimentResponse{Name: name, Text: res.Render()}
	if exp, ok := res.(experiments.CSVExporter); ok {
		resp.CSV = exp.CSV()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleScenario(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	sc, err := scenario.Load(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeBodyError(w, err)
		return
	}
	if sc.Traces != "" {
		// The API must not read server-side files on client demand.
		writeError(w, http.StatusBadRequest, "trace replay is not available over the API")
		return
	}
	if sc.Days > MaxRequestDays {
		// The CLI runs arbitrary horizons; one HTTP request's work stays
		// bounded.
		writeError(w, http.StatusBadRequest,
			"days must be at most %d for API runs, got %g", MaxRequestDays, sc.Days)
		return
	}

	if !s.acquire() {
		s.rejectBusy(w)
		return
	}
	defer s.release()
	ctx, cancel := s.runCtx(r)
	defer cancel()

	kind := "scenario"
	if len(sc.Fleets) > 0 {
		kind = "fleet"
	}
	done := s.serving.StartKind(kind)
	start := time.Now()
	res, err := sc.RunCtx(ctx, s.traces.Scope("scenario"))
	done(err)
	s.logger.Printf("run scenario services=%d fleets=%d dur=%s err=%v",
		len(sc.Services), len(sc.Fleets), time.Since(start).Round(time.Millisecond), err)
	if err != nil {
		writeRunError(w, "scenario", err)
		return
	}
	writeJSON(w, http.StatusOK, toScenarioResponse(res))
}

func toScenarioResponse(res scenario.Result) ScenarioResponse {
	out := ScenarioResponse{
		TotalCost:      res.Totals.Cost,
		NormalizedCost: res.Totals.NormalizedCost(),
		WorstService:   res.Totals.WorstService,
		WorstUnavail:   res.Totals.WorstUnavailability,
	}
	for _, sr := range res.Services {
		out.Services = append(out.Services, toServiceResponse(sr.Name, sr.Report, sr))
	}
	for _, fr := range res.Fleets {
		rep := fr.Report
		out.Fleets = append(out.Fleets, FleetResponse{
			Name:                fr.Name,
			Strategy:            rep.Strategy,
			NormalizedCost:      rep.NormalizedCost(),
			Cost:                rep.Cost,
			BaselineCost:        rep.BaselineCost,
			CapacityShortfall:   rep.CapacityShortfall(),
			PeakTarget:          rep.PeakTarget,
			ReplicasLost:        rep.ReplicasLost,
			MaxSimultaneousLoss: rep.MaxSimultaneousLoss(),
			OnDemandFallbacks:   rep.OnDemandFallbacks,
			ReverseReplacements: rep.ReverseReplacements,
		})
	}
	return out
}

func toServiceResponse(name string, rep metrics.Report, sr scenario.ServiceResult) ServiceResponse {
	s := ServiceResponse{
		Name:           name,
		NormalizedCost: rep.NormalizedCost(),
		Unavailability: rep.Unavailability(),
		Cost:           rep.Cost,
		BaselineCost:   rep.BaselineCost,
		Forced:         rep.Migrations.Forced,
		Planned:        rep.Migrations.Planned,
		Reverse:        rep.Migrations.Reverse,
		DowntimeSec:    rep.DowntimeSeconds,
	}
	if sr.Analysis != nil {
		s.NetBenefit = sr.Analysis.Net
		worth := sr.Analysis.WorthIt()
		s.WorthIt = &worth
	}
	return s
}
