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
// caller-chosen stage label, and each Get, Put and Reject also returns the
// counts it added, so a caller sharing the store with others can report
// its own traffic.
package cache

import (
	"fmt"
	"os"
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

	stats map[string]StageStats
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
		stats: make(map[string]StageStats),
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

// Get returns the value stored under key and whether it was found, and
// what the lookup did: one hit, with the bytes it read from the disk tier
// and the evictions its promotion into memory caused, or one miss. The
// same counts go into the store's statistics under stage, which never
// affects addressing. The returned slice must not be modified by the
// caller.
func (c *Cache) Get(stage string, key Key) ([]byte, bool, StageStats) {
	if c == nil {
		return nil, false, StageStats{}
	}
	c.mu.Lock()
	if v, ok := c.mem.get(key); ok {
		did := c.count(stage, StageStats{Hits: 1})
		c.mu.Unlock()
		return v, true, did
	}
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		if v, ok := disk.Get(key); ok {
			c.mu.Lock()
			_, evicted := c.mem.put(key, v)
			did := c.count(stage, StageStats{Hits: 1, BytesRead: int64(len(v)), Evictions: int64(evicted)})
			c.mu.Unlock()
			return v, true, did
		}
	}
	c.mu.Lock()
	did := c.count(stage, StageStats{Misses: 1})
	c.mu.Unlock()
	return nil, false, did
}

// Put stores value under key and returns what the store did: one put, the
// value bytes the memory tier admitted (none when the key is resident or
// the value exceeds the whole budget), the evictions that made room, and a
// disk error if the disk tier failed to write. Values are immutable: a
// second Put of the same key is a no-op in memory and overwrites the
// identical bytes on disk. The cache takes ownership of value; callers must
// not modify it afterwards.
func (c *Cache) Put(stage string, key Key, value []byte) StageStats {
	if c == nil {
		return StageStats{}
	}
	c.mu.Lock()
	admitted, evicted := c.mem.put(key, value)
	did := StageStats{Puts: 1, Evictions: int64(evicted)}
	if admitted {
		did.BytesWritten = int64(len(value))
	}
	did = c.count(stage, did)
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		// Disk errors (full volume, permissions) degrade to memory-only
		// operation; they must never fail the flow.
		if err := disk.Put(key, value); err != nil {
			c.mu.Lock()
			did = did.Add(c.count(stage, StageStats{DiskErrors: 1}))
			c.mu.Unlock()
		}
	}
	return did
}

// Reject removes key from both tiers after the value a Get returned failed
// its caller-level decode (a codec/schema skew the entry checksum cannot
// see): dropping the entry turns a persistent decode failure into one
// recompute. That lookup found nothing usable, so Reject recounts it under
// stage as a miss instead of a hit and returns the correction.
func (c *Cache) Reject(stage string, key Key) StageStats {
	if c == nil {
		return StageStats{}
	}
	c.mu.Lock()
	c.mem.delete(key)
	did := c.count(stage, StageStats{Hits: -1, Misses: 1})
	disk := c.disk
	c.mu.Unlock()
	if disk != nil {
		os.Remove(disk.path(key))
	}
	return did
}

// StageStats counts one stage's cache traffic.
type StageStats struct {
	Hits         int64
	Misses       int64
	Puts         int64 // Put calls, whether or not the memory tier admitted the value
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

// Add returns the counter-wise sum s + o.
func (s StageStats) Add(o StageStats) StageStats {
	return StageStats{
		Hits:         s.Hits + o.Hits,
		Misses:       s.Misses + o.Misses,
		Puts:         s.Puts + o.Puts,
		BytesRead:    s.BytesRead + o.BytesRead,
		BytesWritten: s.BytesWritten + o.BytesWritten,
		Evictions:    s.Evictions + o.Evictions,
		DiskErrors:   s.DiskErrors + o.DiskErrors,
	}
}

// count adds one call's counts to stage's counters and returns them. The
// caller holds c.mu.
func (c *Cache) count(stage string, did StageStats) StageStats {
	c.stats[stage] = c.stats[stage].Add(did)
	return did
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
		out.Stages[name] = s
	}
	c.mu.Unlock()
	return out
}

// Total sums the per-stage counters.
func (s Stats) Total() StageStats {
	var t StageStats
	for _, st := range s.Stages {
		t = t.Add(st)
	}
	return t
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
