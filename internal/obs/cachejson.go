package obs

// CacheStageJSON is one cache stage label's traffic in the run report
// (schema v1.1, optional "cache" section). The cts flow uses one label,
// "run".
type CacheStageJSON struct {
	Stage        string  `json:"stage"`
	Hits         int64   `json:"hits"`
	Misses       int64   `json:"misses"`
	Puts         int64   `json:"puts"`
	HitRate      float64 `json:"hit_rate"`      // unit: 1
	BytesRead    int64   `json:"bytes_read"`    // unit: B // from the disk tier
	BytesWritten int64   `json:"bytes_written"` // unit: B // admitted to the store
}

// CacheJSON is the report's cache section: per-stage counters (sorted by
// stage name) plus run totals. Absent ("cache" omitted) when the run had
// no cache attached — the section is additive, which is why v1 -> v1.1 is a
// minor bump.
type CacheJSON struct {
	Stages       []CacheStageJSON `json:"stages"`
	Hits         int64            `json:"hits"`
	Misses       int64            `json:"misses"`
	Puts         int64            `json:"puts"`
	HitRate      float64          `json:"hit_rate"`      // unit: 1
	BytesRead    int64            `json:"bytes_read"`    // unit: B
	BytesWritten int64            `json:"bytes_written"` // unit: B
	Evictions    int64            `json:"evictions"`
	DiskErrors   int64            `json:"disk_errors"`
}

// SetCache records the run's cache counters for the report. The
// recorder takes ownership of c.
func (r *Recorder) SetCache(c *CacheJSON) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.cache = c
	r.mu.Unlock()
}
