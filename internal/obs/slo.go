package obs

// SLOConfig derives an error budget from an availability objective and
// alerts when the burn rate over a trailing window exceeds a threshold —
// the standard multiwindow burn-rate policy, evaluated over simulated
// time instead of a live metrics store.
type SLOConfig struct {
	// Availability is the served/target objective (e.g. 0.999); the
	// error budget is 1 - Availability. Zero means DefaultAvailability.
	Availability float64
	// FastWindow/FastBurn page on sharp budget burn (default 1h at
	// 14.4x); SlowWindow/SlowBurn ticket on sustained burn (default 6h
	// at 6x). Windows are simulated seconds.
	FastWindow, FastBurn float64
	SlowWindow, SlowBurn float64
}

// DefaultAvailability is the default served/target objective.
const DefaultAvailability = 0.999

func (c SLOConfig) withDefaults() SLOConfig {
	if c.Availability <= 0 || c.Availability >= 1 {
		c.Availability = DefaultAvailability
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 3600
	}
	if c.FastBurn <= 0 {
		c.FastBurn = 14.4
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 6 * 3600
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = 6
	}
	return c
}

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
func evaluateSLO(cfg SLOConfig, shortfall, target *Series, now float64) []Alert {
	cfg = cfg.withDefaults()
	budget := 1 - cfg.Availability
	var alerts []Alert
	for _, w := range []struct {
		width, thresh float64
		sev           string
	}{
		{cfg.FastWindow, cfg.FastBurn, "page"},
		{cfg.SlowWindow, cfg.SlowBurn, "ticket"},
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
