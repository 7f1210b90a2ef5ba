package obs

import (
	"fmt"
	"io"
)

// Timeline is one run's exported telemetry: the downsampled series, the
// SLO alerts derived from them, and the ledger size. It marshals to the
// JSON served by GET /v1/tenants/{t}/fleets/{f}/timeline.
type Timeline struct {
	Schema int          `json:"schema"`
	Label  string       `json:"label,omitempty"`
	End    float64      `json:"end_seconds"`
	Budget int          `json:"budget"`
	Series []SeriesData `json:"series"`
	// Alerts lists the fast-window (page) alerts in time order, then the
	// slow-window (ticket) alerts in time order.
	Alerts    []Alert `json:"alerts"`
	Decisions int     `json:"decisions"`
}

// TimelineCSVHeader is the header row of the long-form CSV export.
const TimelineCSVHeader = "label,series,kind,t0_seconds,width_seconds,value\n"

// WriteCSV emits the timeline in long form, one row per bucket —
// label,series,kind,t0_seconds,width_seconds,value — ready for pivoting
// in any plotting tool (see EXPERIMENTS.md for a walkthrough).
func (tl Timeline) WriteCSV(w io.Writer) error {
	for _, s := range tl.Series {
		for i, v := range s.Buckets {
			if _, err := fmt.Fprintf(w, "%s,%s,%s,%g,%g,%g\n",
				tl.Label, s.Name, s.Kind, float64(i)*s.Width, s.Width, v); err != nil {
				return err
			}
		}
	}
	return nil
}
