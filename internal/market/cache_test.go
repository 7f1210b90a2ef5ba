package market

import (
	"reflect"
	"sync"
	"testing"

	"spothost/internal/sim"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.Horizon = 2 * sim.Day
	return cfg
}

// TestCacheMemoizes checks a repeated lookup returns the same *Set without
// regenerating, and that the result matches an uncached Generate.
func TestCacheMemoizes(t *testing.T) {
	c := NewCache()
	cfg := smallConfig(7)
	a, err := c.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second lookup did not return the cached Set")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Universes != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 hit, 1 universe", st)
	}

	fresh, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range fresh.IDs() {
		ta, tf := a.Trace(id), fresh.Trace(id)
		if !reflect.DeepEqual(ta.Times(), tf.Times()) || !reflect.DeepEqual(ta.Prices(), tf.Prices()) {
			t.Fatalf("cached trace %s differs from direct generation", id)
		}
	}
}

// TestCacheKeyedBySeedAndConfig checks distinct seeds and tweaked configs
// occupy distinct entries.
func TestCacheKeyedBySeedAndConfig(t *testing.T) {
	c := NewCache()
	if _, err := c.Generate(smallConfig(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Generate(smallConfig(2)); err != nil {
		t.Fatal(err)
	}
	tweaked := smallConfig(1)
	tweaked.SpikesPerDay = 9
	if _, err := c.Generate(tweaked); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Universes != 3 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 3 distinct universes", st)
	}
}

// TestCacheReserve checks the banded-reserve generator is memoized under
// its own key space.
func TestCacheReserve(t *testing.T) {
	c := NewCache()
	rcfg := reserveConfig(3, 0, 2*sim.Day)
	a, err := c.GenerateReserve(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.GenerateReserve(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("reserve set not memoized")
	}
	spiky := rcfg
	spiky.SpikesPerDay = 3
	sp, err := c.GenerateReserve(spiky)
	if err != nil {
		t.Fatal(err)
	}
	if sp == a {
		t.Fatal("spiky reserve config collided with the banded one")
	}
	// Both generators take one Config; the kind keeps them apart.
	g, err := c.Generate(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if g == a {
		t.Fatal("Generate and GenerateReserve of one config collided")
	}
}

// TestCacheError checks invalid configs propagate their error (memoized,
// not re-validated) and don't poison valid entries.
func TestCacheError(t *testing.T) {
	c := NewCache()
	bad := smallConfig(1)
	bad.Types = nil
	if _, err := c.Generate(bad); err == nil {
		t.Fatal("want validation error")
	}
	if _, err := c.Generate(bad); err == nil {
		t.Fatal("want memoized validation error")
	}
	if _, err := c.Generate(smallConfig(1)); err != nil {
		t.Fatal(err)
	}
}

// TestCacheSingleflight checks concurrent lookups of one universe share a
// single generation and all get the same Set.
func TestCacheSingleflight(t *testing.T) {
	c := NewCache()
	cfg := smallConfig(11)
	const n = 16
	sets := make([]*Set, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Generate(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			sets[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if sets[i] != sets[0] {
			t.Fatal("concurrent lookups returned distinct Sets")
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Universes != 1 {
		t.Fatalf("stats = %+v, want a single generation", st)
	}
}

// TestCachePurge checks Purge drops entries and resets counters.
func TestCachePurge(t *testing.T) {
	c := NewCache()
	if _, err := c.Generate(smallConfig(5)); err != nil {
		t.Fatal(err)
	}
	c.Purge()
	if st := c.Stats(); st.Universes != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("stats after purge = %+v", st)
	}
	if _, err := c.Generate(smallConfig(5)); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("stats after repopulate = %+v", st)
	}
}

// TestSharedCache checks the process-wide cache exists and memoizes.
func TestSharedCache(t *testing.T) {
	cfg := smallConfig(99)
	a, err := SharedCache().Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SharedCache().Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("shared cache did not memoize")
	}
}
