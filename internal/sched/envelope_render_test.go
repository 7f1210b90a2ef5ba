package sched_test

import (
	"testing"

	"spothost/internal/experiments"
	"spothost/internal/sched"
)

// The rendered experiment output must be byte-identical with the envelope
// fast path on (the default, "after") and off (the reference scans,
// "before"): the envelope is an access-path optimization, not a policy
// change. Figure 6 exercises the scheduler's single-service
// migration policies, Figure 8 the multi-market portfolios.

func envelopeByteIdentical(t *testing.T, name string) {
	t.Helper()
	e, ok := experiments.Find(name)
	if !ok {
		t.Fatalf("experiment %q not registered", name)
	}
	opts := experiments.Quick()
	opts.Parallel = 1
	render := func() string {
		r, err := e.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		return r.Render()
	}
	after := render()
	sched.SetEnvelopeFastPath(false)
	defer sched.SetEnvelopeFastPath(true)
	if before := render(); after != before {
		t.Fatalf("%s differs with envelope fast path on vs off\n--- on ---\n%s\n--- off ---\n%s", name, after, before)
	}
}

func TestFigure6EnvelopeByteIdentical(t *testing.T) { envelopeByteIdentical(t, "figure6") }

func TestFigure8EnvelopeByteIdentical(t *testing.T) { envelopeByteIdentical(t, "figure8") }
