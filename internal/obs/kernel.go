package obs

import "sync/atomic"

// KernelCounters is the low-overhead side channel the kernel layers
// increment: rsmt (Steiner insertions), dme (merges, skew snaking),
// buffering (inserted repeaters, decoupled wires), partition (k-means
// iterations, SA moves, min-cost-flow augmentations) and geom/index (grid
// queries). Fields are atomic int64s — order-independent under any
// schedule, so totals are byte-stable for every worker count — and the
// struct is plumbed as a nil-able pointer: a nil *KernelCounters (obs
// disabled) costs one branch per increment site and allocates nothing.
//
// The counters never feed back into any algorithm decision; they exist so
// the run report can attribute work (and, per level, work deltas) to the
// kernels that did it.
type KernelCounters struct {
	// rsmt
	SteinerInserts atomic.Int64 // accepted median Steiner insertions
	// dme
	DMEMerges atomic.Int64 // merge-segment/region constructions
	DMESnakes atomic.Int64 // skew-repair wire extensions
	// buffering
	BufInserted  atomic.Int64 // repeaters + drivers inserted
	BufDecoupled atomic.Int64 // slow-wire decoupling repeaters
	// partition
	KMeansIters atomic.Int64 // Lloyd iterations across all runs
	SAProposed  atomic.Int64 // annealing moves proposed
	SAAccepted  atomic.Int64 // annealing moves accepted
	MCFAugments atomic.Int64 // min-cost-flow augmenting paths
	// geom/index
	GridQueries   atomic.Int64 // nearest-neighbor queries answered
	GridRingSteps atomic.Int64 // expanding-ring radius extensions taken
}

// KernelSnapshot is a plain-int copy of KernelCounters, used for per-level
// deltas and report assembly.
type KernelSnapshot struct {
	SteinerInserts                                   int64
	DMEMerges, DMESnakes                             int64
	BufInserted, BufDecoupled                        int64
	KMeansIters, SAProposed, SAAccepted, MCFAugments int64
	GridQueries, GridRingSteps                       int64
}

// Snapshot copies the current counter values (zero value on nil).
func (k *KernelCounters) Snapshot() KernelSnapshot {
	if k == nil {
		return KernelSnapshot{}
	}
	return KernelSnapshot{
		SteinerInserts: k.SteinerInserts.Load(),
		DMEMerges:      k.DMEMerges.Load(),
		DMESnakes:      k.DMESnakes.Load(),
		BufInserted:    k.BufInserted.Load(),
		BufDecoupled:   k.BufDecoupled.Load(),
		KMeansIters:    k.KMeansIters.Load(),
		SAProposed:     k.SAProposed.Load(),
		SAAccepted:     k.SAAccepted.Load(),
		MCFAugments:    k.MCFAugments.Load(),
		GridQueries:    k.GridQueries.Load(),
		GridRingSteps:  k.GridRingSteps.Load(),
	}
}

// Sub returns the per-field difference k - prev.
func (k KernelSnapshot) Sub(prev KernelSnapshot) KernelSnapshot {
	return KernelSnapshot{
		SteinerInserts: k.SteinerInserts - prev.SteinerInserts,
		DMEMerges:      k.DMEMerges - prev.DMEMerges,
		DMESnakes:      k.DMESnakes - prev.DMESnakes,
		BufInserted:    k.BufInserted - prev.BufInserted,
		BufDecoupled:   k.BufDecoupled - prev.BufDecoupled,
		KMeansIters:    k.KMeansIters - prev.KMeansIters,
		SAProposed:     k.SAProposed - prev.SAProposed,
		SAAccepted:     k.SAAccepted - prev.SAAccepted,
		MCFAugments:    k.MCFAugments - prev.MCFAugments,
		GridQueries:    k.GridQueries - prev.GridQueries,
		GridRingSteps:  k.GridRingSteps - prev.GridRingSteps,
	}
}
