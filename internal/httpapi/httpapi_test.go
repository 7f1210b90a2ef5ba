package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(Config{}))
	t.Cleanup(srv.Close)
	return srv
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := decode[map[string]string](t, resp)
	if body["status"] != "ok" {
		t.Fatalf("body = %v", body)
	}
}

func TestListExperiments(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Get(srv.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	body := decode[map[string][]string](t, resp)
	names := body["experiments"]
	if len(names) < 13 {
		t.Fatalf("experiments = %v", names)
	}
	// Method guard.
	resp2, _ := http.Post(srv.URL+"/v1/experiments", "application/json", nil)
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST on list = %d", resp2.StatusCode)
	}
	resp2.Body.Close()
}

func TestRunExperiment(t *testing.T) {
	srv := newServer(t)
	body := strings.NewReader(`{"quick": true, "seeds": 1, "days": 8}`)
	resp, err := http.Post(srv.URL+"/v1/experiments/figure7", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[ExperimentResponse](t, resp)
	if out.Name != "figure7" || !strings.Contains(out.Text, "CKPT LR + Live") {
		t.Fatalf("response: %+v", out)
	}
	if !strings.Contains(out.CSV, "mechanism,unavail_typical") {
		t.Fatalf("csv missing: %q", out.CSV)
	}
}

func TestRunExperimentWithoutBody(t *testing.T) {
	srv := newServer(t)
	// table2 is cheap even at default fidelity; empty body = defaults.
	resp, err := http.Post(srv.URL+"/v1/experiments/table2", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[ExperimentResponse](t, resp)
	if !strings.Contains(out.Text, "Table 2") {
		t.Fatalf("text: %q", out.Text)
	}
}

func TestExperimentErrors(t *testing.T) {
	srv := newServer(t)
	// Unknown experiment.
	resp, _ := http.Post(srv.URL+"/v1/experiments/figure99", "application/json", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown = %d", resp.StatusCode)
	}
	e := decode[map[string]string](t, resp)
	if !strings.Contains(e["error"], "figure99") {
		t.Fatalf("error body: %v", e)
	}
	// Wrong method.
	resp2, _ := http.Get(srv.URL + "/v1/experiments/figure7")
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d", resp2.StatusCode)
	}
	resp2.Body.Close()
	// Garbage body.
	resp3, _ := http.Post(srv.URL+"/v1/experiments/figure7", "application/json",
		strings.NewReader(`{"quick": "yes-please"}`))
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body = %d", resp3.StatusCode)
	}
	resp3.Body.Close()
}

func TestScenarioEndpoint(t *testing.T) {
	srv := newServer(t)
	doc := `{
	  "seed": 3, "days": 5,
	  "services": [
	    {"name": "shop", "region": "us-east-1a", "type": "small",
	     "policy": "proactive",
	     "revenue": {"requests_per_second": 10, "revenue_per_request": 0.001}}
	  ]
	}`
	resp, err := http.Post(srv.URL+"/v1/scenario", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[ScenarioResponse](t, resp)
	if len(out.Services) != 1 || out.Services[0].Name != "shop" {
		t.Fatalf("response: %+v", out)
	}
	svc := out.Services[0]
	if svc.NormalizedCost <= 0 || svc.NormalizedCost > 0.6 {
		t.Fatalf("cost: %+v", svc)
	}
	if svc.WorthIt == nil || !*svc.WorthIt {
		t.Fatalf("econ verdict missing: %+v", svc)
	}
	if out.WorstService != "shop" {
		t.Fatalf("totals: %+v", out)
	}
}

func TestScenarioEndpointFleet(t *testing.T) {
	srv := newServer(t)
	doc := `{
	  "seed": 5, "days": 3,
	  "fleets": [
	    {"name": "web", "strategy": "diversified",
	     "base_load": 300, "peak_load": 600, "per_replica_load": 150}
	  ]
	}`
	resp, err := http.Post(srv.URL+"/v1/scenario", "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decode[ScenarioResponse](t, resp)
	if len(out.Fleets) != 1 || len(out.Services) != 0 {
		t.Fatalf("response: %+v", out)
	}
	fl := out.Fleets[0]
	if fl.Name != "web" || fl.Strategy != "diversified" {
		t.Fatalf("fleet: %+v", fl)
	}
	if fl.NormalizedCost <= 0 || fl.NormalizedCost >= 1 {
		t.Fatalf("fleet cost: %+v", fl)
	}
	if fl.PeakTarget < 3 || fl.CapacityShortfall > 0.05 {
		t.Fatalf("fleet capacity: %+v", fl)
	}

	// The fleet run surfaces in /metrics under its own kind.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var b strings.Builder
	if _, err := io.Copy(&b, mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `spotserve_kind_runs_total{kind="fleet",outcome="completed"} 1`) {
		t.Fatalf("metrics missing fleet kind:\n%s", b.String())
	}
}

func TestScenarioEndpointErrors(t *testing.T) {
	srv := newServer(t)
	// Invalid document.
	resp, _ := http.Post(srv.URL+"/v1/scenario", "application/json",
		strings.NewReader(`{"days": 5, "services": []}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid doc = %d", resp.StatusCode)
	}
	resp.Body.Close()
	// Server-side file access is refused.
	resp2, _ := http.Post(srv.URL+"/v1/scenario", "application/json",
		strings.NewReader(`{"traces": "/etc/passwd", "services": [
		  {"name":"x","region":"us-east-1a","type":"small"}]}`))
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("traces over API = %d", resp2.StatusCode)
	}
	body := decode[map[string]string](t, resp2)
	if !strings.Contains(body["error"], "not available") {
		t.Fatalf("error: %v", body)
	}
	// Wrong method.
	resp3, _ := http.Get(srv.URL + "/v1/scenario")
	if resp3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET scenario = %d", resp3.StatusCode)
	}
	resp3.Body.Close()
}
