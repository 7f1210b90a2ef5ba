package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"spothost/internal/controlplane"
)

// newTenantServer builds a server with direct access to its control plane
// so tests can observe subscription slots.
func newTenantServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	srv := httptest.NewServer(s)
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

// TestStatusWriterForwardsFlush: the logging wrapper must not hide the
// underlying writer's http.Flusher, or streaming responses sit in the
// server's buffer until the handler returns.
func TestStatusWriterForwardsFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	var w http.ResponseWriter = &statusWriter{ResponseWriter: rec, status: http.StatusOK}
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusWriter does not satisfy http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Error("Flush was not forwarded to the wrapped writer")
	}
	// A wrapped writer with no Flusher underneath is a no-op, not a panic.
	bare := &statusWriter{ResponseWriter: nopWriter{}, status: http.StatusOK}
	bare.Flush()
}

type nopWriter struct{}

func (nopWriter) Header() http.Header         { return http.Header{} }
func (nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (nopWriter) WriteHeader(int)             {}

// TestOversizedBody413: request bodies over the 1 MiB cap are rejected
// with 413 on every body-accepting route, not a generic 400.
func TestOversizedBody413(t *testing.T) {
	_, srv := newTenantServer(t, Config{})
	pad := strings.Repeat("x", 2<<20)
	routes := []struct {
		path, body string
	}{
		{"/v1/experiments/figure7", `{"pad":"` + pad + `"}`},
		{"/v1/scenario", `{"product":"` + pad + `"}`},
		{"/v1/tenants/acme/fleets", `{"name":"` + pad + `"}`},
	}
	for _, tc := range routes {
		resp, body := post(t, srv.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413 (%s)", tc.path, resp.StatusCode, body)
		}
		if !strings.Contains(body, "exceeds") {
			t.Errorf("%s: error %q does not mention the limit", tc.path, body)
		}
	}
}

// TestScenarioDaysCap: /v1/scenario enforces MaxRequestDays — a scenario
// document is client-controlled, so an unbounded horizon would let one
// request monopolize the server (the CLI path stays uncapped).
func TestScenarioDaysCap(t *testing.T) {
	_, srv := newTenantServer(t, Config{})
	resp, body := post(t, srv.URL+"/v1/scenario",
		`{"days": 3650, "fleets": [{"name": "f"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "at most 90") {
		t.Errorf("error %q does not mention the 90-day cap", body)
	}
}

// TestTenantLifecycle walks the control-plane API end to end: register,
// list, snapshot, stream to completion, duplicate conflict, unregister.
func TestTenantLifecycle(t *testing.T) {
	_, srv := newTenantServer(t, Config{Shards: 2})
	base := srv.URL + "/v1/tenants/acme/fleets"

	resp, body := post(t, base,
		`{"name": "web", "seed": 7, "days": 2, "fleet": {"strategy": "diversified"}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status = %d, want 201 (%s)", resp.StatusCode, body)
	}
	var snap controlplane.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Tenant != "acme" || snap.Name != "web" || snap.Days != 2 {
		t.Errorf("register snapshot = %+v", snap)
	}

	if resp, body := post(t, base, `{"name": "web", "days": 1}`); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate register: status = %d, want 409 (%s)", resp.StatusCode, body)
	}
	if resp, body := post(t, base, `{"name": "bad", "days": 500}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("over-horizon register: status = %d, want 400 (%s)", resp.StatusCode, body)
	}
	if resp, _ := post(t, base, `{"days": 1}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nameless register: status = %d, want 400", resp.StatusCode)
	}

	resp, body = get(t, base)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"web"`) {
		t.Errorf("list: status = %d body = %s", resp.StatusCode, body)
	}

	// The stream replays history and follows the run to its terminal
	// record: exactly one record per simulated day for day-aligned slices.
	sresp, err := http.Get(base + "/web/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var records []controlplane.StreamRecord
	sc := bufio.NewScanner(sresp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var rec controlplane.StreamRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d stream records, want 2 (one per simulated day)", len(records))
	}
	last := records[len(records)-1]
	if !last.Done || last.Day != 2 || last.Report == nil || last.Report.Seed != 7 {
		t.Errorf("terminal record = %+v", last)
	}

	resp, body = get(t, base+"/web")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status = %d (%s)", resp.StatusCode, body)
	}
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.State != controlplane.StateDone || snap.Report == nil {
		t.Errorf("terminal snapshot = %+v", snap)
	}

	req, _ := http.NewRequest(http.MethodDelete, base+"/web", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("delete: status = %d, want 204", dresp.StatusCode)
	}
	if resp, _ := get(t, base+"/web"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("snapshot after delete: status = %d, want 404", resp.StatusCode)
	}
}

// TestTenantStreamClientDisconnect: a mid-stream NDJSON consumer going
// away must free its subscription slot while the fleet is still running —
// the handler notices the dropped connection through the request context.
// Receiving the first record mid-run also proves the response is flushed
// incrementally through the logging wrapper.
func TestTenantStreamClientDisconnect(t *testing.T) {
	s, srv := newTenantServer(t, Config{Shards: 1})
	base := srv.URL + "/v1/tenants/acme/fleets"

	// A deliberately heavy fleet (64 replicas, 1-minute autoscaler ticks,
	// 90 days) so the run is still in flight when the client vanishes.
	resp, body := post(t, base,
		`{"name": "big", "days": 90, "fleet": {"strategy": "diversified",
		  "base_load": 9600, "peak_load": 9600, "tick_minutes": 1}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status = %d (%s)", resp.StatusCode, body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, base+"/big/stream", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	// One flushed record arrives while the run is still going.
	if sc := bufio.NewScanner(sresp.Body); !sc.Scan() {
		t.Fatalf("no stream record before disconnect: %v", sc.Err())
	}
	snap, err := s.plane.Snapshot("acme", "big")
	if err != nil {
		t.Fatal(err)
	}
	if snap.State == controlplane.StateDone {
		t.Fatal("fleet finished before the disconnect; make the spec heavier")
	}
	if snap.Subscribers != 1 {
		t.Fatalf("Subscribers = %d mid-stream, want 1", snap.Subscribers)
	}

	cancel() // the client disconnects mid-stream

	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, err := s.plane.Snapshot("acme", "big")
		if err != nil {
			t.Fatal(err)
		}
		if snap.Subscribers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscription not freed after disconnect: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsIncludeControlPlane: GET /metrics carries the per-tenant and
// per-shard control-plane series.
func TestMetricsIncludeControlPlane(t *testing.T) {
	_, srv := newTenantServer(t, Config{Shards: 2})
	if resp, body := post(t, srv.URL+"/v1/tenants/acme/fleets",
		`{"name": "m", "days": 1, "fleet": {}}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status = %d (%s)", resp.StatusCode, body)
	}
	_, body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		"spotserve_cp_fleets_registered 1",
		`spotserve_cp_tenant_fleets{tenant="acme"} 1`,
		`spotserve_cp_shard_queue_depth{shard="0"}`,
		"spotserve_cp_steps_per_second",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTenantRouteErrors covers the route-shape and lookup failures.
func TestTenantRouteErrors(t *testing.T) {
	_, srv := newTenantServer(t, Config{})
	if resp, _ := get(t, srv.URL+"/v1/tenants/acme/other"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("bad route: status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/v1/tenants/acme/fleets/ghost"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown fleet: status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL+"/v1/tenants/acme/fleets/ghost/stream"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown stream: status = %d, want 404", resp.StatusCode)
	}
	for fleet, want := range map[string]string{
		`{"strategy": "bogus"}`:               "unknown strategy",
		`{"base_load": 100, "peak_load": 50}`: "peak_load below base_load",
		`{"tick_minutes": 0.001}`:             "tick_minutes",
		`{"max_replicas": 65}`:                "max_replicas",
	} {
		resp, body := post(t, srv.URL+"/v1/tenants/acme/fleets", `{"name": "f", "days": 1, "fleet": `+fleet+`}`)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, want) {
			t.Errorf("bad spec %s: status = %d body = %s, want 400 mentioning %q", fleet, resp.StatusCode, body, want)
		}
	}
}

// TestTenantQuota429: quota rejections surface as 429 with the computed
// Retry-After header.
func TestTenantQuota429(t *testing.T) {
	_, srv := newTenantServer(t, Config{Shards: 1, TenantQuota: 1})
	base := srv.URL + "/v1/tenants/small/fleets"
	if resp, body := post(t, base, `{"name": "a", "days": 90, "fleet": {}}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status = %d (%s)", resp.StatusCode, body)
	}
	resp, body := post(t, base, `{"name": "b", "days": 1, "fleet": {}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over quota: status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want a positive integer", ra)
	}
	if !strings.Contains(body, "quota") {
		t.Errorf("error %q does not mention quota", body)
	}
}

// TestRegisterRejectsBadCatalog: a fleet registration with a malformed
// instance catalog must fail fast at registration with a 400 — not be
// accepted and then die inside its simulation shard.
func TestRegisterRejectsBadCatalog(t *testing.T) {
	_, srv := newTenantServer(t, Config{})
	base := srv.URL + "/v1/tenants/acme/fleets"
	cases := map[string]string{
		"unknown anchor_type": `{"name": "f1", "days": 1,
		  "fleet": {"catalog": "default", "anchor_type": "mega"}}`,
		"unknown catalog": `{"name": "f2", "days": 1,
		  "fleet": {"catalog": "exotic", "anchor_type": "small"}}`,
		"anchor without catalog": `{"name": "f3", "days": 1,
		  "fleet": {"anchor_type": "small"}}`,
		"malformed entries": `{"name": "f4", "days": 1,
		  "fleet": {"catalog": "custom", "anchor_type": "a",
		    "catalog_entries": [{"name": "a", "vcpu": 1, "memory_gb": 1, "units": 3, "on_demand": 0.1}]}}`,
	}
	for label, body := range cases {
		resp, out := post(t, base, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", label, resp.StatusCode, out)
		}
	}
	// The tenant must be left with no registered fleets after the rejects.
	resp, out := get(t, base)
	if resp.StatusCode != http.StatusOK || !strings.Contains(out, `"fleets":[]`) {
		t.Errorf("list after rejects: status %d body %s", resp.StatusCode, out)
	}

	// Sanity: the same shape with a valid catalog is accepted.
	resp, out = post(t, base, `{"name": "ok", "days": 1,
	  "fleet": {"catalog": "default", "anchor_type": "small"}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("valid catalog register: status = %d, want 201 (%s)", resp.StatusCode, out)
	}
}

// TestScenarioEndpointRejectsBadCatalog: the /v1/scenario document path
// runs the same catalog validation.
func TestScenarioEndpointRejectsBadCatalog(t *testing.T) {
	_, srv := newTenantServer(t, Config{})
	resp, body := post(t, srv.URL+"/v1/scenario",
		`{"days": 1, "fleets": [{"name": "f", "catalog": "default", "anchor_type": "mega"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "anchor") {
		t.Errorf("error %q does not mention the anchor type", body)
	}
}

// TestScenarioEndpointRejectsOverflowingRevenue: a revenue model whose rate
// overflows float64 would price every outcome as ±Inf or NaN, which JSON
// cannot encode; the document is rejected before anything runs.
func TestScenarioEndpointRejectsOverflowingRevenue(t *testing.T) {
	_, srv := newTenantServer(t, Config{})
	resp, body := post(t, srv.URL+"/v1/scenario", `{"days": 1, "services": [{"name": "shop", "region": "us-east-1a", "type": "small",
	  "revenue": {"requests_per_second": 1e200, "revenue_per_request": 1e200}}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(body, "not finite") {
		t.Errorf("error %q does not say the revenue rate is not finite", body)
	}
}
