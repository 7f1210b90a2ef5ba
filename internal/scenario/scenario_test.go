package scenario

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spothost/internal/market"
)

const goodDoc = `{
  "seed": 9,
  "days": 6,
  "services": [
    {"name": "shop", "region": "us-east-1a", "type": "medium",
     "policy": "proactive", "mechanism": "ckpt-lr-live",
     "revenue": {"requests_per_second": 40, "revenue_per_request": 0.001,
                 "degraded_loss_factor": 0.3}},
    {"name": "api", "region": "us-west-1a", "type": "small",
     "policy": "reactive", "mechanism": "ckpt-lr"},
    {"name": "surge", "region": "us-east-1a", "type": "small",
     "policy": "proactive", "vms": 4,
     "markets": ["us-east-1a/small", "us-east-1a/large"],
     "start_hour": 24, "stop_hour": 72}
  ]
}`

func TestLoadGood(t *testing.T) {
	sc, err := Load(strings.NewReader(goodDoc))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Services) != 3 || sc.Days != 6 {
		t.Fatalf("parsed: %+v", sc)
	}
	if sc.Services[0].Revenue == nil {
		t.Fatal("revenue model lost")
	}
}

func TestLoadRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"not json":        `{`,
		"unknown field":   `{"days": 5, "bogus": 1, "services": [{"name":"a","region":"r","type":"small"}]}`,
		"no services":     `{"days": 5, "services": []}`,
		"no days":         `{"services": [{"name":"a","region":"r","type":"small"}]}`,
		"unnamed service": `{"days": 5, "services": [{"region":"r","type":"small"}]}`,
		"duplicate names": `{"days": 5, "services": [{"name":"a","region":"r","type":"small"},{"name":"a","region":"r","type":"small"}]}`,
		"missing region":  `{"days": 5, "services": [{"name":"a","type":"small"}]}`,
		"bad policy":      `{"days": 5, "services": [{"name":"a","region":"r","type":"small","policy":"wishful"}]}`,
		"bad mechanism":   `{"days": 5, "services": [{"name":"a","region":"r","type":"small","mechanism":"magic"}]}`,
		"stop<start":      `{"days": 5, "services": [{"name":"a","region":"r","type":"small","start_hour":10,"stop_hour":5}]}`,
		"bad revenue":     `{"days": 5, "services": [{"name":"a","region":"r","type":"small","revenue":{"requests_per_second":-1}}]}`,
		"unnamed fleet":   `{"days": 5, "fleets": [{"strategy": "diversified"}]}`,
		"dup fleet name":  `{"days": 5, "services": [{"name":"a","region":"r","type":"small"}], "fleets": [{"name":"a"}]}`,
		"bad strategy":    `{"days": 5, "fleets": [{"name":"f","strategy":"vibes"}]}`,
		"bad fleet mkt":   `{"days": 5, "fleets": [{"name":"f","markets":["us-east-1a"]}]}`,
		"peak<base":       `{"days": 5, "fleets": [{"name":"f","base_load":100,"peak_load":50}]}`,
		"negative param":  `{"days": 5, "fleets": [{"name":"f","target_ms":-1}]}`,
	}
	for label, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

func TestScenarioRunEndToEnd(t *testing.T) {
	sc, err := Load(strings.NewReader(goodDoc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Services) != 3 {
		t.Fatalf("results = %d", len(res.Services))
	}
	byName := map[string]ServiceResult{}
	for _, sr := range res.Services {
		byName[sr.Name] = sr
	}
	shop := byName["shop"]
	if shop.Report.Cost <= 0 || shop.Report.NormalizedCost() > 0.6 {
		t.Fatalf("shop report: %+v", shop.Report)
	}
	if shop.Analysis == nil || !shop.Analysis.WorthIt() {
		t.Fatalf("shop analysis: %+v", shop.Analysis)
	}
	if byName["api"].Analysis != nil {
		t.Fatal("api should have no analysis")
	}
	// The surge shard only lives for two days.
	surge := byName["surge"].Report
	if surge.Horizon > 49*3600 {
		t.Fatalf("surge horizon = %v", surge.Horizon)
	}
	if res.Totals.Services != 3 || res.Totals.Cost <= 0 {
		t.Fatalf("totals: %+v", res.Totals)
	}
	out := res.Render()
	for _, want := range []string{"shop", "api", "surge", "portfolio:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

const fleetDoc = `{
  "seed": 5,
  "days": 4,
  "fleets": [
    {"name": "web", "strategy": "diversified",
     "markets": ["us-east-1a/small", "us-east-1b/small", "us-west-1a/small", "eu-west-1a/small"],
     "base_load": 300, "peak_load": 900, "per_replica_load": 150}
  ]
}`

func TestScenarioFleetOnly(t *testing.T) {
	sc, err := Load(strings.NewReader(fleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Services) != 0 || len(res.Fleets) != 1 {
		t.Fatalf("results: %d services, %d fleets", len(res.Services), len(res.Fleets))
	}
	rep := res.Fleets[0].Report
	if res.Fleets[0].Name != "web" || rep.Strategy != "diversified" {
		t.Fatalf("fleet result: %+v", res.Fleets[0])
	}
	if rep.Cost <= 0 || rep.NormalizedCost() >= 1 {
		t.Fatalf("fleet cost %v of baseline %v", rep.Cost, rep.BaselineCost)
	}
	// Peak 900 EBs at 150 per replica ~ 6 target replicas (+/- noise).
	if rep.PeakTarget < 5 {
		t.Fatalf("peak target = %d", rep.PeakTarget)
	}
	if rep.CapacityShortfall() > 0.05 {
		t.Fatalf("shortfall = %v", rep.CapacityShortfall())
	}
	out := res.Render()
	if !strings.Contains(out, "fleet web") || strings.Contains(out, "portfolio:") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestScenarioMixedServicesAndFleets(t *testing.T) {
	doc := `{
	  "seed": 3,
	  "days": 3,
	  "services": [
	    {"name": "shop", "region": "us-east-1a", "type": "medium"}
	  ],
	  "fleets": [
	    {"name": "web", "strategy": "lowest-price", "per_replica_load": 150,
	     "base_load": 150, "peak_load": 450, "tick_minutes": 10}
	  ]
	}`
	sc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Services) != 1 || len(res.Fleets) != 1 {
		t.Fatalf("results: %+v", res)
	}
	if res.Totals.Services != 1 {
		t.Fatalf("totals: %+v", res.Totals)
	}
	if res.Fleets[0].Report.Strategy != "lowest-price" {
		t.Fatalf("fleet strategy = %q", res.Fleets[0].Report.Strategy)
	}
	out := res.Render()
	for _, want := range []string{"shop", "portfolio:", "fleet web"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioFleetUnknownMarket(t *testing.T) {
	doc := `{"days": 2, "fleets": [
	  {"name":"f","markets":["atlantis-1a/small"],"per_replica_load":100}]}`
	sc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunCtx(context.Background(), nil); err == nil {
		t.Fatal("unknown fleet market ran")
	}
}

func TestScenarioUnknownMarketFails(t *testing.T) {
	doc := `{"days": 3, "services": [
	  {"name":"a","region":"atlantis-1a","type":"small"}]}`
	sc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunCtx(context.Background(), nil); err == nil {
		t.Fatal("unknown region ran")
	}
}

func TestScenarioReplaysCSV(t *testing.T) {
	// Write a tiny CSV universe and point the scenario at it.
	dir := t.TempDir()
	path := filepath.Join(dir, "prices.csv")
	csv := strings.Join([]string{
		"seconds,region,instance_type,price",
		"0,us-east-1a,small,0.011",
		"7200,us-east-1a,small,0.013",
		"#ondemand,us-east-1a,small,0.06",
		"#end,,,259200",
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := `{"traces": "` + path + `", "services": [
	  {"name":"svc","region":"us-east-1a","type":"small","policy":"proactive"}]}`
	sc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Services[0].Report
	if r.Cost <= 0 || r.SpotFraction() < 0.9 {
		t.Fatalf("replayed run: %+v", r)
	}
}

func TestScenarioBadTraces(t *testing.T) {
	doc := `{"traces": "/nonexistent/prices.csv", "services": [
	  {"name":"svc","region":"us-east-1a","type":"small"}]}`
	sc, err := Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.RunCtx(context.Background(), nil); err == nil {
		t.Fatal("missing traces file ran")
	}
	sc.Traces = "scenario.go" // exists but wrong format
	sc.TracesFormat = "carrier-pigeon"
	if _, err := sc.RunCtx(context.Background(), nil); err == nil {
		t.Fatal("unknown format ran")
	}
}

// TestScenarioCatalogValidation: malformed catalog knobs are rejected at
// Load time (which is what the HTTP layer turns into a 400), never at
// run time.
func TestScenarioCatalogValidation(t *testing.T) {
	cases := map[string]string{
		"unknown catalog":     `{"days": 2, "fleets": [{"name":"f","catalog":"exotic","anchor_type":"small"}]}`,
		"anchor sans catalog": `{"days": 2, "fleets": [{"name":"f","anchor_type":"small"}]}`,
		"catalog sans anchor": `{"days": 2, "fleets": [{"name":"f","catalog":"default"}]}`,
		"unknown anchor":      `{"days": 2, "fleets": [{"name":"f","catalog":"default","anchor_type":"mega"}]}`,
		"entries sans custom": `{"days": 2, "fleets": [{"name":"f","catalog":"default","anchor_type":"small",
		  "catalog_entries":[{"name":"a","vcpu":1,"memory_gb":1,"units":1,"on_demand":0.1}]}]}`,
		"custom sans entries": `{"days": 2, "fleets": [{"name":"f","catalog":"custom","anchor_type":"small"}]}`,
		"non-power-of-two units": `{"days": 2, "fleets": [{"name":"f","catalog":"custom","anchor_type":"a",
		  "catalog_entries":[{"name":"a","vcpu":1,"memory_gb":1,"units":3,"on_demand":0.1}]}]}`,
		"negative price": `{"days": 2, "fleets": [{"name":"f","catalog":"custom","anchor_type":"a",
		  "catalog_entries":[{"name":"a","vcpu":1,"memory_gb":1,"units":1,"on_demand":-0.1}]}]}`,
	}
	for label, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}

const catalogFleetDoc = `{
  "seed": 5,
  "days": 2,
  "fleets": [
    {"name": "web", "strategy": "lowest-price",
     "catalog": "default", "anchor_type": "small",
     "base_load": 300, "peak_load": 900, "per_replica_load": 150}
  ]
}`

// TestScenarioCatalogFleetRuns: a typed-catalog fleet declared in a
// scenario document finds its markets — the generated universe is
// widened with the catalog's types — and produces a billed report.
func TestScenarioCatalogFleetRuns(t *testing.T) {
	sc, err := Load(strings.NewReader(catalogFleetDoc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.RunCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fleets) != 1 {
		t.Fatalf("results: %d fleets", len(res.Fleets))
	}
	rep := res.Fleets[0].Report
	if rep.Cost <= 0 {
		t.Fatalf("catalog fleet cost = %v", rep.Cost)
	}
	types := map[market.InstanceType]bool{}
	for id := range rep.MarketSeconds {
		types[id.Type] = true
	}
	if len(types) < 2 {
		t.Errorf("catalog fleet billed %d instance types, want >= 2", len(types))
	}
}
