package experiments

import (
	"bytes"
	"strings"
	"testing"

	"spothost/internal/obs"
)

// TestTimelineDeterminism asserts the telemetry export — downsampled
// timeline CSV and decision-ledger NDJSON — is byte-identical at any
// worker count. Recorders are labeled by deterministic (strategy, seed)
// coordinates and the collector exports in label order, so worker
// completion order must never leak into either file.
func TestTimelineDeterminism(t *testing.T) {
	export := func(workers int) (string, string) {
		opts := determinismOpts(workers)
		col := obs.NewCollector(obs.Config{Budget: 64})
		opts.Obs = col
		if _, err := Fleet(opts); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var tl, led bytes.Buffer
		if err := col.WriteTimelineCSV(&tl); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := col.WriteLedgerNDJSON(&led); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tl.String(), led.String()
	}
	wantTL, wantLed := export(1)
	if !strings.Contains(wantTL, "cost_dollars") || !strings.Contains(wantTL, "shortfall_units") {
		t.Fatalf("serial timeline CSV missing core series:\n%.500s", wantTL)
	}
	if !strings.Contains(wantLed, `"action":"spot"`) {
		t.Fatalf("serial ledger has no spot decisions:\n%.500s", wantLed)
	}
	for _, w := range workerCounts() {
		gotTL, gotLed := export(w)
		if gotTL != wantTL {
			t.Fatalf("workers=%d: timeline CSV differs from serial (%d vs %d bytes)", w, len(gotTL), len(wantTL))
		}
		if gotLed != wantLed {
			t.Fatalf("workers=%d: ledger NDJSON differs from serial (%d vs %d bytes)", w, len(gotLed), len(wantLed))
		}
	}
}
