package cts

import (
	"sllt/internal/cache"
	"sllt/internal/liberty"
	"sllt/internal/tech"
)

// cacheSalt versions every key the cts cache driver derives. Bump it
// whenever key derivation, a stage-value encoding, or the semantics of any
// cached stage change — old entries then become unreachable instead of
// wrong. The golden-key fixtures in cachekey_golden_test.go exist to make
// this deliberate: a key change without a salt bump fails the fixture test.
const cacheSalt = "sllt.cts.cache/v1"

// Cached stage names. Each must correspond to a function carrying the
// matching `// stage:` annotation, verified transitively pure by the
// stagepure analyzer — that annotation is the cache admission gate, and
// TestCachedStagesAreAnnotated enforces the correspondence.
const (
	stagePartition = "partition"
	stageCluster   = "cluster_build"
	stageTopNet    = "top_net"
	stageTiming    = "timing"
)

// cachedStages lists every stage the driver consults the store for.
var cachedStages = []string{stagePartition, stageCluster, stageTopNet, stageTiming}

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

// runBase derives the per-run base key: everything that is constant across
// stages and levels — constraints, technology, library, builder identity and
// the option knobs that reach any cached stage. Per-stage keys extend it
// with the stage name and the stage's own inputs. Workers and Obs are
// deliberately absent: both are byte-identity-neutral (property-tested), so
// a cache warmed at W=8 serves a W=1 run and vice versa.
func runBase(opts Options) cache.Key {
	h := cache.NewHasher(cacheSalt)
	h.Str("cons").F64(opts.Cons.SkewBound).Int(opts.Cons.MaxFanout).
		F64(opts.Cons.MaxCap).F64(opts.Cons.MaxWL)
	techFingerprint(h, opts.Tech)
	libFingerprint(h, opts.Lib)
	h.Str("build").Str(opts.BuildID)
	h.Str("knobs").Int(int(opts.Est)).Bool(opts.UseSA).Int(opts.SAIters).
		I64(opts.Seed).F64(opts.SourceSlew).F64(opts.BufferMargin).
		Str(opts.ForceCell).Int(opts.KMeansRestarts)
	return h.Sum()
}

// sinkID is the content address of one original sink: the leaf identity
// from which every higher-level node identity derives.
func sinkID(base cache.Key, name string, x, y, cap float64, idx int) cache.Key {
	h := cache.NewHasher(cacheSalt)
	h.Key(base).Str("sink").Str(name).F64(x).F64(y).F64(cap).Int(idx)
	return h.Sum()
}

// partitionKey addresses one level's partition stage: the level index (it
// offsets the k-means and SA seeds) and each node's location and cap — the
// exact inputs partitionLevel reads. Node delays do not reach partitioning,
// so they are deliberately absent.
func partitionKey(base cache.Key, level int, nodes []clockNode) cache.Key {
	h := cache.NewHasher(cacheSalt)
	h.Key(base).Str(stagePartition).Int(level).List(len(nodes))
	for i := range nodes {
		h.F64(nodes[i].loc.X).F64(nodes[i].loc.Y).F64(nodes[i].cap)
	}
	return h.Sum()
}

// clusterKey addresses one cluster's build: the per-net skew share and each
// member's identity, geometry, cap and delay annotation. A member's id is
// the key of the stage that produced it (hierarchical identity propagation —
// dagger's trick), so a change anywhere in a member's history changes this
// key without re-hashing the subtree's content.
func clusterKey(base cache.Key, levelBound float64, members []clockNode, ids []cache.Key) cache.Key {
	h := cache.NewHasher(cacheSalt)
	h.Key(base).Str(stageCluster).F64(levelBound).List(len(members))
	for i := range members {
		h.Key(ids[i]).F64(members[i].loc.X).F64(members[i].loc.Y).
			F64(members[i].cap).F64(members[i].delay)
	}
	return h.Sum()
}

// topNetKey addresses the top-level net build from the clock root over the
// surviving drivers.
func topNetKey(base cache.Key, rootX, rootY, levelBound float64, nodes []clockNode, ids []cache.Key) cache.Key {
	h := cache.NewHasher(cacheSalt)
	h.Key(base).Str(stageTopNet).F64(rootX).F64(rootY).F64(levelBound).List(len(nodes))
	for i := range nodes {
		h.Key(ids[i]).F64(nodes[i].loc.X).F64(nodes[i].loc.Y).
			F64(nodes[i].cap).F64(nodes[i].delay)
	}
	return h.Sum()
}

// timingKey addresses the terminal STA pass by the identity of the tree it
// analyzes — the top-net stage key — rather than the tree's bytes; the
// library, technology and source slew are already folded into base.
func timingKey(base, topKey cache.Key) cache.Key {
	h := cache.NewHasher(cacheSalt)
	h.Key(base).Str(stageTiming).Key(topKey)
	return h.Sum()
}
