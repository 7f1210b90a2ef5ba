package fleet

// SetEnvelopeFastPath toggles the envelope fast path so external tests
// can render experiments against the reference scans. Not safe to flip
// while runs are in flight.
func SetEnvelopeFastPath(on bool) { useEnvelope = on }
