package cts

import (
	"sllt/internal/cache"
	"sllt/internal/geom"
	"sllt/internal/liberty"
	"sllt/internal/obs"
	"sllt/internal/tech"
	"sllt/internal/tree"
)

// The run cache replays whole runs. Run consults the store once, under one
// key over everything the flow reads (runKey); a hit decodes the finished
// tree and the level records (codec.go) instead of synthesizing, and a run
// that completes stores them. Nothing finer is cached: the paper partitions
// every level as a whole (§3.2's k-means and assignment, then the
// annealer), so a placement edit re-partitions level 0 and only an exact
// repeat could replay. Replaying is sound only while Run is a pure function
// of its key; TestCacheByteIdentity checks that a warm run is one hit and
// no miss and exports the uncached run's DEF byte for byte.

// cacheSalt versions the run key and the entry encoding. Bump it whenever
// key derivation, the entry codec or the flow's output changes — old
// entries then become unreachable instead of wrong. TestCacheKeyGolden pins
// the key, so a derivation change without a bump fails there. A change that
// moves the flow's output follows the contract-change rule in DESIGN.md,
// which bumps this salt in the same commit.
const cacheSalt = "sllt.cts.cache/v4"

// stageRun labels the run cache's traffic in the store's statistics and in
// the report's cache section.
const stageRun = "run"

// libFingerprint folds the entire buffer library into the hash: every cell
// coefficient reaches delay estimation, buffer sizing and timing.
func libFingerprint(h *cache.Hasher, lib *liberty.Library) {
	h.Str("lib").Str(lib.Name).List(len(lib.Cells))
	for _, c := range lib.Cells {
		h.Str(c.Name).F64(c.InputCap).F64(c.MaxCap).F64(c.Area).
			F64(c.WS).F64(c.WC).F64(c.WI).F64(c.SC).F64(c.SI)
	}
}

// techFingerprint folds the process parameters into the hash.
func techFingerprint(h *cache.Hasher, t tech.Tech) {
	h.Str("tech").Str(t.Name).F64(t.RPerUm).F64(t.CPerUm).F64(t.SinkCap)
}

// runKey addresses one run: the constraints, technology, library, builder
// identity and option knobs, the clock root, and every sink's name,
// location and cap in order. Workers, Obs and Ctx are deliberately absent:
// none changes what a completed run produces (worker invariance is
// property-tested), so an entry stored at W=8 serves a W=1 run and vice
// versa.
func runKey(opts Options, root geom.Point, sinks []tree.PinSink) cache.Key {
	cell := "" // the one cell every buffer uses; "" sizes buffers by load
	if opts.StrongestCell {
		cell = opts.Lib.Strongest().Name
	}
	h := cache.NewHasher(cacheSalt)
	h.Str("cons").F64(opts.Cons.SkewBound).Int(opts.Cons.MaxFanout).
		F64(opts.Cons.MaxCap).F64(opts.Cons.MaxWL)
	techFingerprint(h, opts.Tech)
	libFingerprint(h, opts.Lib)
	h.Str("build").Str(opts.BuildID)
	h.Str("knobs").Int(int(opts.Est)).Bool(opts.UseSA).Int(opts.SAIters).
		I64(opts.Seed).F64(opts.SourceSlew).F64(opts.BufferMargin).
		Str(cell).Int(opts.KMeansRestarts)
	h.Str("root").F64(root.X).F64(root.Y)
	h.Str("sinks").List(len(sinks))
	for _, s := range sinks {
		h.Str(s.Name).F64(s.Loc.X).F64(s.Loc.Y).F64(s.Cap)
	}
	return h.Sum()
}

// loadRun replays the run stored under key: the finished tree's root and
// the level records. An entry that passes the store's checksum but not
// this codec (a schema skew the salt should have caught) is rejected,
// which deletes it and counts the lookup as a miss, and the caller
// recomputes. A miss returns a nil root. The counts are the lookup's own
// store traffic.
func loadRun(store *cache.Cache, key cache.Key) (*tree.Node, []obs.LevelQoR, cache.StageStats) {
	data, ok, did := store.Get(stageRun, key)
	if !ok {
		return nil, nil, did
	}
	levels, root, err := decodeRunEntry(data)
	if err != nil {
		return nil, nil, did.Add(store.Reject(stageRun, key))
	}
	return root, levels, did
}

// cacheReport converts one run's own store traffic, all of it under
// stageRun, into the report's cache section. Counting the run's calls
// rather than the store's totals keeps runs that share a store out of each
// other's sections.
func cacheReport(s cache.StageStats) *obs.CacheJSON {
	return &obs.CacheJSON{
		Stages: []obs.CacheStageJSON{{
			Stage:        stageRun,
			Hits:         s.Hits,
			Misses:       s.Misses,
			Puts:         s.Puts,
			HitRate:      s.HitRate(),
			BytesRead:    s.BytesRead,
			BytesWritten: s.BytesWritten,
		}},
		Hits:         s.Hits,
		Misses:       s.Misses,
		Puts:         s.Puts,
		HitRate:      s.HitRate(),
		BytesRead:    s.BytesRead,
		BytesWritten: s.BytesWritten,
		Evictions:    s.Evictions,
		DiskErrors:   s.DiskErrors,
	}
}
