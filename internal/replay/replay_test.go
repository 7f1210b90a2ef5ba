package replay

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"spothost/internal/cloud"
	"spothost/internal/market"
	"spothost/internal/sched"
	"spothost/internal/sim"
)

const sampleJSON = `{
  "SpotPriceHistory": [
    {"AvailabilityZone": "us-east-1a", "InstanceType": "m1.small",
     "ProductDescription": "Linux/UNIX", "SpotPrice": "0.0071",
     "Timestamp": "2015-02-01T00:00:00.000Z"},
    {"AvailabilityZone": "us-east-1a", "InstanceType": "m1.small",
     "ProductDescription": "Linux/UNIX", "SpotPrice": "0.0123",
     "Timestamp": "2015-02-01T06:00:00.000Z"},
    {"AvailabilityZone": "us-east-1a", "InstanceType": "m1.small",
     "ProductDescription": "Windows", "SpotPrice": "0.0210",
     "Timestamp": "2015-02-01T03:00:00.000Z"},
    {"AvailabilityZone": "us-east-1a", "InstanceType": "m3.large",
     "ProductDescription": "Linux/UNIX", "SpotPrice": "0.0301",
     "Timestamp": "2015-02-01T01:00:00.000Z"},
    {"AvailabilityZone": "us-west-1a", "InstanceType": "m1.small",
     "ProductDescription": "Linux/UNIX", "SpotPrice": "0.0090",
     "Timestamp": "2015-02-01T02:00:00.000Z"}
  ]
}`

func TestParseJSONEnvelope(t *testing.T) {
	recs, err := ParseJSON(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Price != 0.0071 || recs[0].Zone != "us-east-1a" || recs[0].Type != "m1.small" {
		t.Fatalf("first record: %+v", recs[0])
	}
}

const bareJSON = `[{"AvailabilityZone":"us-east-1a","InstanceType":"m1.small",
  "ProductDescription":"Linux/UNIX","SpotPrice":"0.01",
  "Timestamp":"2015-02-01T00:00:00Z"}]`

func TestParseJSONBareArray(t *testing.T) {
	recs, err := ParseJSON(strings.NewReader(bareJSON))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
}

// badJSON are inputs ParseJSON must reject.
var badJSON = []string{
	`not json`,
	`{"SpotPriceHistory":[{"SpotPrice":"x","Timestamp":"2015-02-01T00:00:00Z"}]}`,
	`{"SpotPriceHistory":[{"SpotPrice":"0.01","Timestamp":"yesterday"}]}`,
}

func TestParseJSONErrors(t *testing.T) {
	for i, in := range badJSON {
		if _, err := ParseJSON(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

var legacySample = strings.Join([]string{
	"SPOTINSTANCEPRICE\t0.0071\t2015-02-01T00:00:00Z\tm1.small\tLinux/UNIX\tus-east-1a",
	"", // blank line skipped
	"SOMETHINGELSE\tignored",
	"SPOTINSTANCEPRICE\t0.0123\t2015-02-01T06:00:00Z\tm1.small\tLinux/UNIX\tus-east-1a",
}, "\n")

func TestParseLegacy(t *testing.T) {
	recs, err := ParseLegacy(strings.NewReader(legacySample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[1].Price != 0.0123 {
		t.Fatalf("second record: %+v", recs[1])
	}
}

// badLegacy are inputs ParseLegacy must reject.
var badLegacy = []string{
	"SPOTINSTANCEPRICE\t0.01\t2015-02-01T00:00:00Z\tm1.small", // short row
	"SPOTINSTANCEPRICE\tabc\t2015-02-01T00:00:00Z\tm1.small\tLinux/UNIX\tz",
	"SPOTINSTANCEPRICE\t0.01\twhenever\tm1.small\tLinux/UNIX\tz",
}

func TestParseLegacyErrors(t *testing.T) {
	for i, in := range badLegacy {
		if _, err := ParseLegacy(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// FuzzParseJSON feeds arbitrary bytes to ParseJSON and any records it
// accepts to Build. Neither may panic.
func FuzzParseJSON(f *testing.F) {
	for _, in := range append([]string{sampleJSON, bareJSON}, badJSON...) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if recs, err := ParseJSON(strings.NewReader(in)); err == nil {
			Build(recs, "")
		}
	})
}

// FuzzParseLegacy feeds arbitrary text to ParseLegacy and any records it
// accepts to Build. Neither may panic.
func FuzzParseLegacy(f *testing.F) {
	for _, in := range append([]string{legacySample}, badLegacy...) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		if recs, err := ParseLegacy(strings.NewReader(in)); err == nil {
			Build(recs, "")
		}
	})
}

func TestBuildFiltersAndRebases(t *testing.T) {
	recs, err := ParseJSON(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(recs, "Linux/UNIX")
	if err != nil {
		t.Fatal(err)
	}
	// Windows record filtered; three Linux markets remain.
	if got := len(set.IDs()); got != 3 {
		t.Fatalf("markets = %d: %v", got, set.IDs())
	}
	small := set.Trace(market.ID{Region: "us-east-1a", Type: "small"})
	if small == nil {
		t.Fatal("m1.small not mapped to catalog size 'small'")
	}
	// Rebased: the first observation is at t=0, the 06:00 step at 21600.
	if small.Start() != 0 {
		t.Fatalf("trace start = %v", small.Start())
	}
	if got := small.PriceAt(21600); got != 0.0123 {
		t.Fatalf("price after step = %v", got)
	}
	if got := small.PriceAt(21599); got != 0.0071 {
		t.Fatalf("price before step = %v", got)
	}
	// On-demand resolved from the default catalog.
	if got := set.OnDemand(market.ID{Region: "us-east-1a", Type: "small"}); got != 0.06 {
		t.Fatalf("on-demand = %v", got)
	}
	// Common horizon: all traces share the set end.
	if set.Horizon() <= 21600 {
		t.Fatalf("horizon = %v", set.Horizon())
	}
}

func TestBuildOnDemandCatalogFallback(t *testing.T) {
	recs := []Record{
		{Time: time.Unix(0, 0), Zone: "exotic-9z", Type: "weird.9xlarge", Product: "Linux/UNIX", Price: 0.5},
		{Time: time.Unix(3600, 0), Zone: "exotic-9z", Type: "weird.9xlarge", Product: "Linux/UNIX", Price: 0.9},
		{Time: time.Unix(0, 0), Zone: "exotic-9z", Type: "m1.small", Product: "Linux/UNIX", Price: 0.01},
	}
	set, err := Build(recs, "")
	if err != nil {
		t.Fatal(err)
	}
	// Unknown size: the trace's maximum price.
	if got := set.OnDemand(market.ID{Region: "exotic-9z", Type: "weird.9xlarge"}); got != 0.9 {
		t.Fatalf("max heuristic = %v", got)
	}
	// Unknown region + known size: falls back to the base catalog price.
	if got := set.OnDemand(market.ID{Region: "exotic-9z", Type: "small"}); got != 0.06 {
		t.Fatalf("catalog fallback = %v", got)
	}
}

func TestBuildMaxHeuristicForUnknownSize(t *testing.T) {
	recs := []Record{
		{Time: time.Unix(0, 0), Zone: "z-1a", Type: "alien.big", Product: "L", Price: 0.2},
		{Time: time.Unix(100, 0), Zone: "z-1a", Type: "alien.big", Product: "L", Price: 0.7},
	}
	set, err := Build(recs, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := set.OnDemand(market.ID{Region: "z-1a", Type: "alien.big"}); got != 0.7 {
		t.Fatalf("max heuristic = %v", got)
	}
}

func TestBuildDuplicateTimestamps(t *testing.T) {
	recs := []Record{
		{Time: time.Unix(0, 0), Zone: "z-1a", Type: "m1.small", Product: "L", Price: 0.01},
		{Time: time.Unix(0, 0), Zone: "z-1a", Type: "m1.small", Product: "L", Price: 0.02}, // dup wins
		{Time: time.Unix(50, 0), Zone: "z-1a", Type: "m1.small", Product: "L", Price: 0.03},
	}
	set, err := Build(recs, "")
	if err != nil {
		t.Fatal(err)
	}
	tr := set.Trace(market.ID{Region: "z-1a", Type: "small"})
	if got := tr.PriceAt(0); got != 0.02 {
		t.Fatalf("duplicate resolution: %v", got)
	}
}

func TestBuildEmptyAfterFilter(t *testing.T) {
	recs := []Record{{Time: time.Unix(0, 0), Zone: "z", Type: "t", Product: "Windows", Price: 0.1}}
	if _, err := Build(recs, "Linux/UNIX"); err == nil {
		t.Fatal("empty filter result accepted")
	}
}

// TestReplayEndToEnd runs the scheduler against imported history: the
// library's whole point.
func TestReplayEndToEnd(t *testing.T) {
	// Synthesize two weeks of "history" in legacy format: a low price with
	// one mid-band excursion per day.
	var b strings.Builder
	base := time.Date(2015, 2, 1, 0, 0, 0, 0, time.UTC)
	for day := 0; day < 14; day++ {
		d := base.AddDate(0, 0, day)
		rows := []struct {
			at    time.Time
			price float64
		}{
			{d, 0.009},
			{d.Add(10 * time.Hour), 0.085},
			{d.Add(11 * time.Hour), 0.011},
		}
		for _, r := range rows {
			fmt.Fprintf(&b, "SPOTINSTANCEPRICE\t%.4f\t%s\tm1.small\tLinux/UNIX\tus-east-1a\n",
				r.price, r.at.Format(time.RFC3339))
		}
	}
	set, err := Load("aws-legacy", strings.NewReader(b.String()), "Linux/UNIX")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sched.DefaultConfig(market.ID{Region: "us-east-1a", Type: "small"})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sched.Run(set, cloud.DefaultParams(1), cfg, 14*sim.Day)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cost >= rep.BaselineCost {
		t.Fatalf("replayed hosting not cheaper: %v vs %v", rep.Cost, rep.BaselineCost)
	}
	if rep.Migrations.Planned == 0 || rep.Migrations.Reverse == 0 {
		t.Fatalf("daily excursions produced no migrations: %+v", rep.Migrations)
	}
}
