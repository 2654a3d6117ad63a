// Package cache is a content-addressed store for computed results: values
// are canonical byte encodings of a computation's output, addressed by the
// SHA-256 hash of its complete input description (see Hasher). The store
// is the substrate of the cts run cache, which keeps one entry per
// synthesis run.
//
// A Cache layers an in-memory LRU (always present) over an optional on-disk
// directory (atomic, checksummed entries; see disk.go). Lookups consult
// memory first, then disk; a disk hit is promoted into memory. Every entry
// is immutable once written — the same key always maps to the same bytes,
// so concurrent writers racing on one key are benign.
//
// The package never decides what is cacheable: admission is the caller's
// contract (in this repository, a cached run must be a pure function of the
// hashed inputs). For such a computation, replaying the stored bytes is
// observationally identical to recomputing them — a property the cached
// vs. uncached byte-identity tests in internal/cts enforce at runtime,
// including that a warm run is one hit and no miss. Counters are kept per
// caller-chosen stage label.
package cache

import (
	"fmt"
	"os"
	"sort"
	"sync"
)

// Key is a content address: the SHA-256 of a canonical input encoding.
type Key [32]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// Cache is a two-tier content-addressed store. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type Cache struct {
	mu   sync.Mutex
	mem  *memLRU
	disk *DiskStore // nil: memory only

	stats statsMap
}

// Config sizes a Cache.
type Config struct {
	// MemBytes bounds the in-memory tier (keys + values). Zero selects
	// DefaultMemBytes.
	MemBytes int64
	// Dir, when non-empty, enables the on-disk tier rooted at this
	// directory (created on first write).
	Dir string
}

// DefaultMemBytes is the in-memory budget when Config.MemBytes is zero:
// 256 MiB. The cts run entry of the 100,000-sink benchmark design
// (large100k) measures 15.6 MB, so the default holds sixteen such runs.
const DefaultMemBytes = 256 << 20

// New returns a Cache with the given configuration.
func New(cfg Config) (*Cache, error) {
	if cfg.MemBytes <= 0 {
		cfg.MemBytes = DefaultMemBytes
	}
	c := &Cache{
		mem:   newMemLRU(cfg.MemBytes),
		stats: make(statsMap),
	}
	if cfg.Dir != "" {
		d, err := NewDiskStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.disk = d
	}
	return c, nil
}

// Get returns the value stored under key, or (nil, false). stage labels the
// lookup for the per-stage hit statistics; it never affects addressing.
// The returned slice must not be modified by the caller.
func (c *Cache) Get(stage string, key Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if v, ok := c.mem.get(key); ok {
		c.stats.bump(stage, func(s *StageStats) { s.Hits++ })
		c.mu.Unlock()
		return v, true
	}
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		if v, ok := disk.Get(key); ok {
			c.mu.Lock()
			evicted := c.mem.put(key, v)
			c.stats.bump(stage, func(s *StageStats) {
				s.Hits++
				s.BytesRead += int64(len(v))
				s.Evictions += int64(evicted)
			})
			c.mu.Unlock()
			return v, true
		}
	}
	c.mu.Lock()
	c.stats.bump(stage, func(s *StageStats) { s.Misses++ })
	c.mu.Unlock()
	return nil, false
}

// Put stores value under key. Values are immutable: a second Put of the same
// key is a no-op in memory and overwrites the identical bytes on disk. The
// cache takes ownership of value; callers must not modify it afterwards.
func (c *Cache) Put(stage string, key Key, value []byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	evicted := c.mem.put(key, value)
	c.stats.bump(stage, func(s *StageStats) {
		s.Puts++
		s.BytesWritten += int64(len(value))
		s.Evictions += int64(evicted)
	})
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		// Disk errors (full volume, permissions) degrade to memory-only
		// operation; they must never fail the flow.
		if err := disk.Put(key, value); err != nil {
			c.mu.Lock()
			c.stats.bump(stage, func(s *StageStats) { s.DiskErrors++ })
			c.mu.Unlock()
		}
	}
}

// Delete removes key from both tiers. Used when a stored value fails its
// caller-level decode (a codec/schema skew the entry checksum cannot see):
// dropping the entry turns a persistent decode failure into one recompute.
func (c *Cache) Delete(key Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.mem.delete(key)
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		os.Remove(disk.path(key))
	}
}

// StageStats counts one stage's cache traffic.
type StageStats struct {
	Hits         int64
	Misses       int64
	Puts         int64
	BytesRead    int64 // value bytes read from the disk tier
	BytesWritten int64 // value bytes admitted (memory tier)
	Evictions    int64
	DiskErrors   int64
}

// HitRate returns Hits/(Hits+Misses), or 0 when no lookups happened.
func (s StageStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type statsMap map[string]*StageStats

func (m statsMap) bump(stage string, f func(*StageStats)) {
	s, ok := m[stage]
	if !ok {
		s = &StageStats{}
		m[stage] = s
	}
	f(s)
}

// Stats is a point-in-time copy of the per-stage counters.
type Stats struct {
	Stages map[string]StageStats
}

// Stats snapshots the per-stage counters since construction.
func (c *Cache) Stats() Stats {
	out := Stats{Stages: make(map[string]StageStats)}
	if c == nil {
		return out
	}
	c.mu.Lock()
	for name, s := range c.stats {
		out.Stages[name] = *s
	}
	c.mu.Unlock()
	return out
}

// Total sums the per-stage counters.
func (s Stats) Total() StageStats {
	var t StageStats
	for _, st := range s.Stages {
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Puts += st.Puts
		t.BytesRead += st.BytesRead
		t.BytesWritten += st.BytesWritten
		t.Evictions += st.Evictions
		t.DiskErrors += st.DiskErrors
	}
	return t
}

// StageNames returns the stages with recorded traffic, sorted.
func (s Stats) StageNames() []string {
	names := make([]string, 0, len(s.Stages))
	for n := range s.Stages {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Sub returns the per-stage difference s - prev, dropping stages with no
// traffic in the interval. Used to attribute counters to one run when a
// cache is shared across runs.
func (s Stats) Sub(prev Stats) Stats {
	out := Stats{Stages: make(map[string]StageStats)}
	for name, cur := range s.Stages {
		p := prev.Stages[name]
		d := StageStats{
			Hits:         cur.Hits - p.Hits,
			Misses:       cur.Misses - p.Misses,
			Puts:         cur.Puts - p.Puts,
			BytesRead:    cur.BytesRead - p.BytesRead,
			BytesWritten: cur.BytesWritten - p.BytesWritten,
			Evictions:    cur.Evictions - p.Evictions,
			DiskErrors:   cur.DiskErrors - p.DiskErrors,
		}
		if d != (StageStats{}) {
			out.Stages[name] = d
		}
	}
	return out
}

// Len returns the number of entries resident in the memory tier.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.len()
}
