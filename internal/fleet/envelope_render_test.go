package fleet_test

import (
	"testing"

	"spothost/internal/experiments"
	"spothost/internal/fleet"
)

// The rendered experiment output must be byte-identical with the envelope
// fast path on (the default, "after") and off (the reference scans,
// "before"): the envelope is an access-path optimization, not a policy
// change. The Fleet experiment exercises the replicated
// controller's strategies.

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
	fleet.SetEnvelopeFastPath(false)
	defer fleet.SetEnvelopeFastPath(true)
	if before := render(); after != before {
		t.Fatalf("%s differs with envelope fast path on vs off\n--- on ---\n%s\n--- off ---\n%s", name, after, before)
	}
}

func TestFleetEnvelopeByteIdentical(t *testing.T) { envelopeByteIdentical(t, "fleet") }
