package obs

// The SLO policy derives an error budget from an availability objective
// and alerts when the burn rate over a trailing window exceeds a
// threshold — the standard multiwindow burn-rate policy, evaluated over
// simulated time instead of a live metrics store. The fast window pages
// on sharp budget burn, the slow one tickets on sustained burn. Windows
// are simulated seconds.
const (
	// availability is the served/target objective; the error budget is
	// 1 - availability.
	availability float64 = 0.999

	fastWindow, fastBurn float64 = 3600, 14.4
	slowWindow, slowBurn float64 = 6 * 3600, 6
)

// Alert is one upward burn-rate threshold crossing.
type Alert struct {
	At       float64 `json:"at_seconds"`
	Window   float64 `json:"window_seconds"`
	Burn     float64 `json:"burn"`
	Severity string  `json:"severity"` // "page" (fast window) or "ticket" (slow)
}

// evaluateSLO walks bucket edges of the folded shortfall/target series
// and emits an alert at every upward crossing of a window's burn
// threshold. The burn rate at time t over window w is the fraction of
// capacity demand unserved in [t-w, t] divided by the error budget:
// burning at exactly 1x would exhaust the budget in one objective
// period. Evaluation is a pure function of the bucketized series, so
// alerts are deterministic for a given run. Alerts come out window by
// window, fast then slow, each window's in time order.
func evaluateSLO(shortfall, target *Series, now float64) []Alert {
	// Through a variable, so the budget rounds like float64 arithmetic
	// (0.0010000000000000009); the untyped constant expression 1-0.999
	// would fold exactly to 0.001 and move every burn rate.
	avail := availability
	budget := 1 - avail
	var alerts []Alert
	for _, w := range []struct {
		width, thresh float64
		sev           string
	}{
		{fastWindow, fastBurn, "page"},
		{slowWindow, slowBurn, "ticket"},
	} {
		prev := 0.0
		for i := 0; i < len(shortfall.b); i++ {
			t := float64(i+1) * shortfall.width
			if t > now {
				t = now
			}
			tg := target.rangeIntegral(t-w.width, t, now)
			if tg > 0 {
				burn := shortfall.rangeIntegral(t-w.width, t, now) / tg / budget
				if burn >= w.thresh && prev < w.thresh {
					alerts = append(alerts, Alert{At: t, Window: w.width, Burn: burn, Severity: w.sev})
				}
				prev = burn
			}
			if t >= now {
				break
			}
		}
	}
	return alerts
}
