package cts

import (
	"sllt/internal/cache"
	"sllt/internal/geom"
	"sllt/internal/obs"
	"sllt/internal/timing"
	"sllt/internal/tree"
)

// The cache driver makes each flow stage individually replayable: every
// stage result is addressed by a key over the stage's complete inputs (see
// cachekey.go), stored as a canonical encoding (codec.go), and replayed on a
// key match instead of recomputed. Dirtiness propagates hierarchically — a
// node's identity is the key of the stage that produced it — so an ECO that
// moves k sinks re-keys only the clusters containing them plus the spine
// above: O(dirty clusters) rebuild work, everything else replays.
//
// The driver lives outside the stage functions (Run and buildLevel consult
// it; partitionLevel, buildNet, buildTopNet and timing.Analyze never see it),
// so a stage computes the same bytes whether or not a store is attached.
// Replaying those bytes is sound only while each stage is a pure function of
// its key; TestCacheByteIdentity checks that at runtime, requiring a warm
// multi-level replay to hit every stage it consults and to export the
// uncached run's DEF byte for byte.

// stageCache is one run's cache view: the store, the run's base key, the
// store's counters when the run began, and the current level's node
// identities (index-parallel with the driver's nodes slice, maintained by
// Run/buildLevel as levels collapse).
//
// The nil view is the disabled state, mirroring the nil *obs.Recorder
// convention: every method accepts a nil receiver, gets miss, puts drop and
// nothing is hashed, so the flow runs each stage as one get-or-compute-then-
// put sequence whether or not a store is attached.
type stageCache struct {
	store *cache.Cache
	base  cache.Key
	prev  cache.Stats
	ids   []cache.Key
}

// newStageCache returns the run's cache view, or nil when caching is off
// (no store, or no BuildID to vouch for the builder's identity).
func newStageCache(opts Options, sinks []tree.PinSink) *stageCache {
	if opts.Cache == nil || opts.BuildID == "" {
		return nil
	}
	sc := &stageCache{store: opts.Cache, base: runBase(opts), prev: opts.Cache.Stats()}
	sc.ids = make([]cache.Key, len(sinks))
	for i, s := range sinks {
		sc.ids[i] = sinkID(sc.base, s.Name, s.Loc.X, s.Loc.Y, s.Cap, i)
	}
	return sc
}

// partitionKey keys the level's partition stage over its nodes.
func (sc *stageCache) partitionKey(level int, nodes []clockNode) cache.Key {
	if sc == nil {
		return cache.Key{}
	}
	return partitionKey(sc.base, level, nodes)
}

// getPartition replays a level's partition stage, if stored.
func (sc *stageCache) getPartition(key cache.Key, wantNodes int) (partitionValue, bool) {
	if sc == nil {
		return partitionValue{}, false
	}
	data, ok := sc.store.Get(stagePartition, key)
	if !ok {
		return partitionValue{}, false
	}
	v, err := decodePartitionValue(data, wantNodes)
	if err != nil {
		// The entry passed the store's integrity checks but not this codec:
		// a schema skew the salt should have caught. Drop it and recompute.
		sc.store.Delete(key)
		return partitionValue{}, false
	}
	return v, true
}

func (sc *stageCache) putPartition(key cache.Key, v partitionValue) {
	if sc == nil {
		return
	}
	sc.store.Put(stagePartition, key, encodePartitionValue(v))
}

// clusterKeys derives one key per cluster; members[ci] holds the level
// node indices of clusters[ci]. It runs serially before the fan-out, so
// key order never depends on scheduling. Each key folds in the members'
// identities — sink ids at level 0, the producing cluster keys above — so
// dirtiness propagates up the hierarchy without re-hashing subtree
// contents. nil when caching is off.
func (sc *stageCache) clusterKeys(levelBound float64, clusters [][]clockNode, members [][]int) []cache.Key {
	if sc == nil {
		return nil
	}
	keys := make([]cache.Key, len(clusters))
	for ci, mem := range members {
		mids := make([]cache.Key, len(mem))
		for i, m := range mem {
			mids[i] = sc.ids[m]
		}
		keys[ci] = clusterKey(sc.base, levelBound, clusters[ci], mids)
	}
	return keys
}

// getCluster replays cluster ci's build, if stored under keys[ci].
func (sc *stageCache) getCluster(keys []cache.Key, ci int) (clusterValue, bool) {
	if sc == nil {
		return clusterValue{}, false
	}
	data, ok := sc.store.Get(stageCluster, keys[ci])
	if !ok {
		return clusterValue{}, false
	}
	v, err := decodeClusterValue(data)
	if err != nil {
		sc.store.Delete(keys[ci])
		return clusterValue{}, false
	}
	return v, true
}

func (sc *stageCache) putCluster(keys []cache.Key, ci int, v clusterValue) {
	if sc == nil {
		return
	}
	sc.store.Put(stageCluster, keys[ci], encodeClusterValue(v))
}

// nextLevel makes the level's cluster keys the next level's node
// identities: a stage output carries forward the key that produced it.
// Content-addressing makes this sound — equal keys imply byte-identical
// outputs for stages that are pure functions of their keys.
func (sc *stageCache) nextLevel(clusterKeys []cache.Key) {
	if sc == nil {
		return
	}
	sc.ids = clusterKeys
}

// topNetKey keys the top-net stage from the clock root over the surviving
// drivers.
func (sc *stageCache) topNetKey(root geom.Point, levelBound float64, nodes []clockNode) cache.Key {
	if sc == nil {
		return cache.Key{}
	}
	return topNetKey(sc.base, root.X, root.Y, levelBound, nodes, sc.ids)
}

// getTopNet replays the top-net stage, if stored.
func (sc *stageCache) getTopNet(key cache.Key) (topNetValue, bool) {
	if sc == nil {
		return topNetValue{}, false
	}
	data, ok := sc.store.Get(stageTopNet, key)
	if !ok {
		return topNetValue{}, false
	}
	v, err := decodeTopNetValue(data)
	if err != nil {
		sc.store.Delete(key)
		return topNetValue{}, false
	}
	return v, true
}

func (sc *stageCache) putTopNet(key cache.Key, v topNetValue) {
	if sc == nil {
		return
	}
	sc.store.Put(stageTopNet, key, encodeTopNetValue(v))
}

// timingKey keys the terminal STA pass by the top-net stage's key.
func (sc *stageCache) timingKey(topKey cache.Key) cache.Key {
	if sc == nil {
		return cache.Key{}
	}
	return timingKey(sc.base, topKey)
}

// getTiming replays the terminal STA pass, if stored.
func (sc *stageCache) getTiming(key cache.Key) (*timing.Report, bool) {
	if sc == nil {
		return nil, false
	}
	data, ok := sc.store.Get(stageTiming, key)
	if !ok {
		return nil, false
	}
	r, err := decodeTimingReport(data)
	if err != nil {
		sc.store.Delete(key)
		return nil, false
	}
	return r, true
}

func (sc *stageCache) putTiming(key cache.Key, r *timing.Report) {
	if sc == nil {
		return
	}
	sc.store.Put(stageTiming, key, encodeTimingReport(r))
}

// report converts the run's stats delta into the report's cache section;
// nil (the section omitted) when caching is off.
func (sc *stageCache) report() *obs.CacheJSON {
	if sc == nil {
		return nil
	}
	delta := sc.store.Stats().Sub(sc.prev)
	out := &obs.CacheJSON{}
	for _, name := range delta.StageNames() {
		s := delta.Stages[name]
		out.Stages = append(out.Stages, obs.CacheStageJSON{
			Stage:        name,
			Hits:         s.Hits,
			Misses:       s.Misses,
			Puts:         s.Puts,
			HitRate:      s.HitRate(),
			BytesRead:    s.BytesRead,
			BytesWritten: s.BytesWritten,
		})
	}
	t := delta.Total()
	out.Hits = t.Hits
	out.Misses = t.Misses
	out.Puts = t.Puts
	out.HitRate = t.HitRate()
	out.BytesRead = t.BytesRead
	out.BytesWritten = t.BytesWritten
	out.Evictions = t.Evictions
	out.DiskErrors = t.DiskErrors
	return out
}
