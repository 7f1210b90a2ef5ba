package market

import (
	"fmt"
	"sync"
)

// Cache memoizes universe generation by canonical configuration, so each
// distinct (Config, Seed) universe is generated exactly once per process
// no matter how many experiments (or how many concurrent workers) ask for
// it. Generated Sets are immutable, which is what makes sharing one *Set
// across concurrently running simulations safe.
//
// Lookups are singleflight-deduplicated: when several workers request the
// same not-yet-generated universe at once, exactly one generates it and
// the rest block until it is ready.
//
// Entries are retained for the life of the cache; an evaluation touches a
// few dozen universes at a few MB each. Call Purge to drop them all (e.g.
// between unrelated sweeps in a long-lived process).
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	hits    uint64
	misses  uint64
}

type cacheEntry struct {
	once sync.Once
	set  *Set
	err  error
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{entries: map[string]*cacheEntry{}}
}

// Generate returns the memoized Set for cfg, generating it on first use.
func (c *Cache) Generate(cfg Config) (*Set, error) {
	return c.lookup(cacheKey("generate", cfg), func() (*Set, error) {
		return Generate(cfg)
	})
}

// GenerateReserve returns the memoized banded-reserve Set for cfg,
// generating it on first use.
func (c *Cache) GenerateReserve(cfg Config) (*Set, error) {
	return c.lookup(cacheKey("reserve", cfg), func() (*Set, error) {
		return GenerateReserve(cfg)
	})
}

// cacheKey renders a generator kind and its config to a canonical string
// key. Config is a plain value struct (a slice of value structs, numbers),
// so %#v is deterministic and injective over distinct configurations; the
// kind tells the two generators' universes apart.
func cacheKey(kind string, cfg Config) string {
	return kind + ":" + fmt.Sprintf("%#v", cfg)
}

func (c *Cache) lookup(key string, gen func() (*Set, error)) (*Set, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.hits++
	} else {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses++
	}
	c.mu.Unlock()
	// Generation runs outside the cache lock so distinct universes build
	// concurrently; Once blocks duplicate requests for this universe.
	e.once.Do(func() { e.set, e.err = gen() })
	return e.set, e.err
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits      uint64 // lookups served from an existing entry
	Misses    uint64 // lookups that had to generate
	Universes int    // distinct universes resident
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Universes: len(c.entries)}
}

// Purge drops every cached universe and resets the counters.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*cacheEntry{}
	c.hits, c.misses = 0, 0
}

// sharedCache is the process-wide universe cache used by the simulation
// harness (cloud.Seeded, hence every seeded run grid) by default.
var sharedCache = NewCache()

// SharedCache returns the process-wide universe cache.
func SharedCache() *Cache { return sharedCache }
