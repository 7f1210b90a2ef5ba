package httpapi

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"spothost/internal/experiments"
	"spothost/internal/sim"
)

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func post(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(b)
}

func TestRequestValidation(t *testing.T) {
	srv := newServer(t)
	cases := []struct {
		body string
		want string
	}{
		{`{"seeds": 17}`, "seeds"},
		{`{"seeds": -1}`, "seeds"},
		{`{"days": -4}`, "days"},
		{`{"days": 10000}`, "days"},
		{`{"quick": true`, "truncated"}, // cut-off JSON must not silently run defaults
	}
	for _, tc := range cases {
		resp, body := post(t, srv.URL+"/v1/experiments/figure7", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", tc.body, resp.StatusCode)
		}
		if !strings.Contains(body, tc.want) {
			t.Errorf("body %q: error %q does not mention %q", tc.body, body, tc.want)
		}
	}
}

func TestHealthzMethodGuard(t *testing.T) {
	srv := newServer(t)
	resp, _ := post(t, srv.URL+"/healthz", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /healthz = %d, want 405", resp.StatusCode)
	}
}

func TestListEncodesArrayNotNull(t *testing.T) {
	srv := newServer(t)
	resp, body := get(t, srv.URL+"/v1/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if strings.Contains(body, "null") {
		t.Fatalf("list body contains null: %s", body)
	}
	if !strings.Contains(body, `"experiments":[`) {
		t.Fatalf("list body not an array: %s", body)
	}
}

// runTrace records one blockingServer run: its processed-event count at
// the moment an event first observed cancellation, at return, and the
// run's error.
type runTrace struct {
	atCancel uint64
	atReturn uint64
	err      error
}

// blockingServer returns a Server whose experiment runs spin a real sim
// engine until their context is canceled, signaling started once running
// and reporting a runTrace on return.
func blockingServer(cfg Config, started chan<- struct{}, traces chan<- runTrace) *Server {
	s := New(cfg)
	s.runExperiment = func(ctx context.Context, _ experiments.Entry, _ experiments.Options) (experiments.Renderer, error) {
		eng := sim.NewEngine()
		eng.SetCancelPollInterval(256)
		var atCancel atomic.Uint64
		var tick func()
		tick = func() {
			if ctx.Err() != nil && atCancel.Load() == 0 {
				atCancel.Store(eng.Processed())
			}
			eng.PostAfter(1, tick)
		}
		eng.PostAfter(1, tick)
		select {
		case started <- struct{}{}:
		default:
		}
		err := eng.RunUntilCtx(ctx, 1e12) // effectively unbounded
		traces <- runTrace{atCancel: atCancel.Load(), atReturn: eng.Processed(), err: err}
		if err != nil {
			return nil, err
		}
		return experiments.Table2Result{}, nil
	}
	return s
}

// TestClientDisconnectCancelsRun is the acceptance test: a canceled
// request aborts the in-flight simulation within one cancellation-poll
// batch of events and frees its admission slot.
func TestClientDisconnectCancelsRun(t *testing.T) {
	started := make(chan struct{}, 1)
	traces := make(chan runTrace, 1)
	s := blockingServer(Config{MaxConcurrent: 1}, started, traces)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/experiments/figure6", strings.NewReader(`{"quick":true}`))
	errc := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errc <- err
	}()
	<-started // the run is executing
	cancel()  // client disconnects

	var tr runTrace
	select {
	case tr = <-traces:
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after client disconnect")
	}
	if !errors.Is(tr.err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", tr.err)
	}
	// The engine may execute at most one poll batch (256 events here,
	// +1 for the event that observed the cancel) past the cancellation.
	if tr.atCancel == 0 || tr.atReturn-tr.atCancel > 256+1 {
		t.Fatalf("run executed %d events past cancellation (batch is 256)",
			tr.atReturn-tr.atCancel)
	}
	if err := <-errc; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}

	// The admission slot must be freed once the canceled handler unwinds.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.sem) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("admission slot never freed after cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Metrics must reflect the canceled run and an empty in-flight gauge.
	resp, body := get(t, srv.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{
		"spotserve_runs_started_total 1",
		"spotserve_runs_canceled_total 1",
		"spotserve_runs_in_flight 0",
		"spotserve_market_cache_hits_total",
		"spotserve_market_cache_misses_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestAdmissionControl429(t *testing.T) {
	started := make(chan struct{}, 1)
	traces := make(chan runTrace, 1)
	s := blockingServer(Config{MaxConcurrent: 1}, started, traces)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
		srv.URL+"/v1/experiments/figure6", strings.NewReader(`{"quick":true}`))
	go func() { _, _ = http.DefaultClient.Do(req) }()
	<-started // slot taken

	resp, body := post(t, srv.URL+"/v1/experiments/figure6", `{"quick":true}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	cancel()
	<-traces

	resp2, mbody := get(t, srv.URL+"/metrics")
	if resp2.StatusCode != http.StatusOK || !strings.Contains(mbody, "spotserve_runs_rejected_total 1") {
		t.Fatalf("metrics after 429:\n%s", mbody)
	}
}

func TestRunTimeout504(t *testing.T) {
	started := make(chan struct{}, 1)
	traces := make(chan runTrace, 1)
	s := blockingServer(Config{MaxConcurrent: 1, RunTimeout: 50 * time.Millisecond}, started, traces)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	resp, body := post(t, srv.URL+"/v1/experiments/figure6", `{"quick":true}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, body)
	}
	tr := <-traces
	if !errors.Is(tr.err, context.DeadlineExceeded) {
		t.Fatalf("run err = %v, want context.DeadlineExceeded", tr.err)
	}
}

func TestMetricsMethodGuard(t *testing.T) {
	srv := newServer(t)
	resp, _ := post(t, srv.URL+"/metrics", "")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics = %d, want 405", resp.StatusCode)
	}
}
