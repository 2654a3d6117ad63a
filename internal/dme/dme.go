// Package dme implements deferred-merge embedding for clock trees: the
// classic two-phase construction of zero-skew trees (ZST, Chao et al.) and
// bounded-skew trees (BST, Cong/Kahng/Koh/Tsao) on the Manhattan plane.
//
// Phase 1 walks a binary merging topology bottom-up, computing for every
// internal node a merging region (a tilted rectangular region — see
// geom.TRR) together with the subtree's delay interval and the wire lengths
// assigned to its two child edges. Wire is snaked (edge longer than the
// Manhattan distance) when the skew bound cannot be met otherwise. Phase 2
// embeds the tree top-down, picking for every node the point of its merging
// region nearest to its parent's embedding.
//
// Two delay models are supported: Linear (delay = path length, the model
// under which the paper's SLLT metrics are defined) and Elmore (RC wire
// delay in picoseconds using the tech parameters).
package dme

import (
	"fmt"
	"math"

	"sllt/internal/geom"
	"sllt/internal/obs"
	"sllt/internal/tech"
	"sllt/internal/tree"
)

// Model selects the wire delay model used in merging.
type Model int

// Delay models.
const (
	// Linear treats delay as routed path length (µm).
	Linear Model = iota
	// Elmore uses first-order RC delay (ps) with the tech wire parameters.
	Elmore
)

// String implements fmt.Stringer.
func (m Model) String() string {
	if m == Linear {
		return "linear"
	}
	return "elmore"
}

// SinkFn annotates a sink with a per-sink scalar, its downstream delay.
// Values of this type are called from inside the bottom-up merge, so any
// side effect or hidden input would leak into the embedding;
// implementations must be pure functions of (i, s) and whatever immutable
// data they close over.
type SinkFn func(i int, s tree.PinSink) float64

// Options configures a DME run.
type Options struct {
	// Model is the wire delay model (default Linear).
	Model Model
	// SkewBound is the allowed max−min sink delay: µm of path length for
	// Linear, ps for Elmore. Zero builds a zero-skew tree.
	SkewBound float64
	// Tech supplies wire R/C for the Elmore model.
	Tech tech.Tech
	// SinkDelay optionally gives each sink an initial downstream delay
	// (hierarchical CTS balances cluster roots that already drive subtrees).
	// Nil means zero for all sinks.
	SinkDelay SinkFn
	// RegionGreed in (0,1] controls how much of the skew slack merging
	// regions may consume. Small values approach classic ZST-style merging
	// segments (one split per merge); 1 grows each region to the full union
	// of feasible splits, the Cong et al. BST-DME behavior that trades
	// delay-interval tightness for downstream wirelength. The zero value
	// means the default (1); SegmentRegions selects pure segments.
	RegionGreed float64
	// Kernel, when non-nil, receives work counters (merge constructions,
	// skew-repair snakes). Purely observational: the counters never feed
	// back into any merging decision.
	Kernel *obs.KernelCounters
}

// SegmentRegions is the RegionGreed value for classic single-split merging
// segments (the pre-region ablation baseline).
const SegmentRegions = -1

// regionGreed resolves the RegionGreed default.
func (o Options) regionGreed() float64 {
	switch {
	case geom.Sign(o.RegionGreed) < 0:
		return 0
	case geom.Sign(o.RegionGreed) == 0 || o.RegionGreed > 1:
		return 1
	default:
		return o.RegionGreed
	}
}

// ZST returns options for a zero-skew tree under the linear delay model.
func ZST() Options { return Options{Model: Linear, SkewBound: 0} }

// BST returns options for a bounded-skew tree under the linear delay model.
func BST(bound float64) Options { return Options{Model: Linear, SkewBound: bound} }

// mnode is a subtree during the bottom-up phase.
type mnode struct {
	ms     geom.Octagon // merging region (degenerate = arc/point; octagon for BST)
	lo, hi float64      // delay interval covering every embedding in ms (model units)
	cap    float64      // unit: fF // total downstream capacitance (Elmore)

	// Merge parameters, used by the top-down phase to realize edges.
	// Along the no-detour family the wire toward the left child is t and
	// toward the right child d−t, with t free inside [tlo, thi]; tstar is
	// the span-minimizing preference. Detour merges fix the split.
	d        float64 // unit: um
	tlo, thi float64 // unit: um
	tstar    float64 // unit: um
	detour   bool
	eaFix    float64 // unit: um
	ebFix    float64 // unit: um

	left, right *mnode
	sinkIdx     int // >= 0 for leaves
}

// Build runs DME over the given merging topology and returns the embedded
// clock tree rooted at the net's source. The topology must cover all sinks
// of the net exactly once (tree.Topo.Validate). The result is a pure
// function of (net, topo, opts), with no clock, randomness or mutable
// package state read, which the run cache relies on when it replays a run
// whose cluster builds call it.
func Build(net *tree.Net, topo *tree.Topo, opts Options) (*tree.Tree, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(len(net.Sinks)); err != nil {
		return nil, err
	}
	root, err := bottomUp(net, topo.Root, opts)
	if err != nil {
		return nil, err
	}
	return topDown(net, root), nil
}

// bottomUp computes merging regions recursively.
func bottomUp(net *tree.Net, tn *tree.TopoNode, opts Options) (*mnode, error) {
	if tn.IsLeaf() {
		s := net.Sinks[tn.SinkIdx]
		var d0 float64
		if opts.SinkDelay != nil {
			d0 = opts.SinkDelay(tn.SinkIdx, s)
		}
		return &mnode{
			ms:      geom.OctFromPoint(s.Loc),
			lo:      d0,
			hi:      d0,
			cap:     s.Cap,
			sinkIdx: tn.SinkIdx,
		}, nil
	}
	a, err := bottomUp(net, tn.Left, opts)
	if err != nil {
		return nil, err
	}
	b, err := bottomUp(net, tn.Right, opts)
	if err != nil {
		return nil, err
	}
	return merge(a, b, opts)
}

// topDown embeds the merge tree, returning a clock tree rooted at the
// source. The merge-tree root embeds at its region's nearest point to the
// source; every other node embeds at the nearest point of its region to its
// parent's location. Edge lengths are realized per node: the chosen point
// pins the split parameter into the sub-window the bottom-up phase left
// open, keeping the realized delays inside the stored intervals.
func topDown(net *tree.Net, root *mnode) *tree.Tree {
	t := tree.New(net.Source)
	rootLoc := root.ms.Nearest(net.Source)

	var place func(m *mnode, loc geom.Point, parent *tree.Node, edgeLen float64)
	place = func(m *mnode, loc geom.Point, parent *tree.Node, edgeLen float64) {
		var n *tree.Node
		if m.sinkIdx >= 0 {
			n = net.SinkNode(m.sinkIdx)
		} else {
			n = tree.NewNode(tree.Steiner, loc)
		}
		parent.AddChild(n)
		if edgeLen > n.EdgeLen {
			n.EdgeLen = edgeLen // snaked wire
		}
		if m.left == nil {
			return
		}
		var ea, eb float64
		if m.detour {
			ea, eb = m.eaFix, m.ebFix
		} else {
			// loc lies in the union of feasible split rectangles, so the
			// geometric window intersects the delay-feasible one; numeric
			// slop falls back to the geometry.
			da := m.left.ms.DistPoint(loc)
			db := m.right.ms.DistPoint(loc)
			lo := math.Max(m.tlo, da)
			hi := math.Min(m.thi, m.d-db)
			if lo > hi {
				lo = da
				hi = math.Max(da, m.d-db)
			}
			tt := clampF(m.tstar, lo, hi)
			ea, eb = tt, m.d-tt
		}
		place(m.left, m.left.ms.Nearest(loc), n, ea)
		place(m.right, m.right.ms.Nearest(loc), n, eb)
	}

	if root.sinkIdx >= 0 {
		// Single-sink net: direct wire.
		place(root, rootLoc, t.Root, net.Source.Dist(net.Sinks[root.sinkIdx].Loc))
		return t
	}
	place(root, rootLoc, t.Root, net.Source.Dist(rootLoc))
	tree.RemoveRedundantSteiner(t)
	return t
}

// delayAdd returns the delay increase of a wire of the given length driving
// a subtree with the given downstream capacitance. The result is in model
// units (µm for Linear, ps for Elmore), so it stays unannotated.
//
// unit: length um, subCap fF -> _
func (o Options) delayAdd(length, subCap float64) float64 {
	if o.Model == Linear {
		return length
	}
	return o.Tech.WireElmore(length, subCap)
}

// invDelayAdd returns the minimal wire length whose delayAdd reaches target
// (>= 0, in model units) into a subtree with the given capacitance.
//
// unit: subCap fF -> um
func (o Options) invDelayAdd(target, subCap float64) float64 {
	if target <= 0 {
		return 0
	}
	if o.Model == Linear {
		return target
	}
	// Solve r·L·(c·L/2 + cap) = target for L >= 0.
	r, c := o.Tech.RPerUm, o.Tech.CPerUm
	a := r * c / 2
	bq := r * subCap
	// a·L² + b·L − target = 0
	return (-bq + math.Sqrt(bq*bq+4*a*target)) / (2 * a)
}

// merge combines two subtrees under the skew bound, computing the merging
// region, the covering delay interval, and the split parameters the
// top-down phase realizes edges from.
//
// The skew constraints bound the relative delay shift
// δ = g_a(e_a) − g_b(e_b) to [δlo, δhi]; along the no-detour family
// (e_a, e_b) = (t, d−t) the shift h(t) is strictly increasing, so
// feasibility at total wire d is an interval test. When feasible, the
// merging region is the union of the per-t intersection rectangles over the
// window the delay budget allows (scaled by Options.RegionGreed) — a convex
// octilinear region, per Cong et al. — and the stored interval covers every
// embedding in it. Infeasible merges snake exactly one side.
func merge(a, b *mnode, opts Options) (*mnode, error) {
	d := a.ms.Dist(b.ms)
	B := opts.SkewBound
	spanA := a.hi - a.lo
	spanB := b.hi - b.lo
	// Accept exactly what merge itself guarantees: the output check below
	// bounds m.hi-m.lo by B+1e-6, so a child produced by an earlier merge
	// may carry up to that much accumulated rounding error (hi and lo are
	// absolute delays, so the span subtraction cancels more bits as trees
	// deepen — million-sink runs land a few 1e-9 over an exact bound).
	if spanA > B+1e-6 || spanB > B+1e-6 {
		return nil, fmt.Errorf("dme: child subtree skew (%g, %g) exceeds bound %g", spanA, spanB, B)
	}
	m := &mnode{d: d, left: a, right: b, sinkIdx: -1}
	if opts.Kernel != nil {
		opts.Kernel.DMEMerges.Add(1)
	}

	dlo := b.hi - a.lo - B
	dhi := B - a.hi + b.lo
	dc := clampF(((b.hi+b.lo)-(a.hi+a.lo))/2, dlo, dhi)
	h := func(t float64) float64 {
		return opts.delayAdd(t, a.cap) - opts.delayAdd(d-t, b.cap)
	}

	var ea, eb float64 // only for detour merges
	switch {
	case h(d) < dlo:
		// Even with all of d on a's side, a stays too fast: snake a.
		m.detour = true
		ea, eb = opts.invDelayAdd(dlo, a.cap), 0
	case h(0) > dhi:
		// b too fast: snake b.
		m.detour = true
		ea, eb = 0, opts.invDelayAdd(-dhi, b.cap)
	default:
		t1 := invMonotone(h, d, math.Max(dlo, h(0)))
		t2 := invMonotone(h, d, math.Min(dhi, h(d)))
		ts := invMonotone(h, d, clampF(dc, h(0), h(d)))
		lam := maxWindowScale(a, b, d, B, t1, t2, ts, opts) * opts.regionGreed()
		m.tstar = ts
		m.tlo = ts + lam*(t1-ts)
		m.thi = ts + lam*(t2-ts)
	}

	if m.detour {
		if opts.Kernel != nil {
			opts.Kernel.DMESnakes.Add(1)
		}
		m.eaFix, m.ebFix = ea, eb
		m.ms = a.ms.Expand(ea).Intersect(b.ms.Expand(eb))
		if m.ms.Empty() {
			m.ms = a.ms.Expand(ea + 1e-6).Intersect(b.ms.Expand(eb + 1e-6))
			if m.ms.Empty() {
				return nil, fmt.Errorf("dme: empty merging region (d=%g ea=%g eb=%g)", d, ea, eb)
			}
		}
		da := opts.delayAdd(ea, a.cap)
		db := opts.delayAdd(eb, b.cap)
		m.lo = math.Min(a.lo+da, b.lo+db)
		m.hi = math.Max(a.hi+da, b.hi+db)
		m.cap = a.cap + b.cap + opts.wireCap(ea+eb)
	} else {
		m.ms = unionRegion(a.ms, b.ms, d, m.tlo, m.thi)
		if m.ms.Empty() {
			return nil, fmt.Errorf("dme: empty merging window region (d=%g t=[%g,%g])\nA=%v\nB=%v\nAexp=%v\nBexp=%v\nint=%v", d, m.tlo, m.thi, a.ms, b.ms, a.ms.Expand(m.tlo), b.ms.Expand(d-m.tlo), a.ms.Expand(m.tlo).Intersect(b.ms.Expand(d-m.tlo)))
		}
		// Pessimistic interval over the whole window: lo endpoints at the
		// monotone extremes (g_a increasing, g_b(d−t) decreasing).
		m.lo = math.Min(a.lo+opts.delayAdd(m.tlo, a.cap), b.lo+opts.delayAdd(d-m.thi, b.cap))
		m.hi = math.Max(a.hi+opts.delayAdd(m.thi, a.cap), b.hi+opts.delayAdd(d-m.tlo, b.cap))
		m.cap = a.cap + b.cap + opts.wireCap(d)
	}
	if m.hi-m.lo > B+1e-6 {
		return nil, fmt.Errorf("dme: merged skew %g exceeds bound %g", m.hi-m.lo, B)
	}
	return m, nil
}

// invMonotone returns t in [0, d] with h(t) = target for strictly
// increasing h (clamped to the range boundary).
func invMonotone(h func(float64) float64, d, target float64) float64 {
	lo, hi := 0.0, d
	if h(lo) >= target {
		return lo
	}
	if h(hi) <= target {
		return hi
	}
	for i := 0; i < 64 && hi-lo > 1e-12*(d+1); i++ {
		mid := (lo + hi) / 2
		if h(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// maxWindowScale finds the largest λ in [0,1] such that the delay interval
// covering the window W(λ) = [ts+λ(t1−ts), ts+λ(t2−ts)] still spans at most
// B. The span is monotone in λ.
func maxWindowScale(a, b *mnode, d, B, t1, t2, ts float64, opts Options) float64 {
	span := func(lam float64) float64 {
		wlo := ts + lam*(t1-ts)
		whi := ts + lam*(t2-ts)
		lo := math.Min(a.lo+opts.delayAdd(wlo, a.cap), b.lo+opts.delayAdd(d-whi, b.cap))
		hi := math.Max(a.hi+opts.delayAdd(whi, a.cap), b.hi+opts.delayAdd(d-wlo, b.cap))
		return hi - lo
	}
	if span(1) <= B+1e-12 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 48; i++ {
		mid := (lo + hi) / 2
		if span(mid) <= B+1e-12 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// unionRegion returns the union of A.Expand(t) ∩ B.Expand(d−t) over
// t ∈ [tlo, thi]. The true union is a convex octilinear region whose
// support in the eight canonical directions is the per-direction extremum
// over t, so the octagonal hull of sampled slices is an exact-at-samples,
// always-valid under-approximation.
func unionRegion(A, B geom.Octagon, d, tlo, thi float64) geom.Octagon {
	const samples = 9
	var out geom.Octagon
	have := false
	for i := 0; i <= samples; i++ {
		t := tlo + (thi-tlo)*float64(i)/float64(samples)
		r := A.Expand(t).Intersect(B.Expand(d - t))
		if r.Empty() {
			r = A.Expand(t + 1e-6).Intersect(B.Expand(d - t + 1e-6))
			if r.Empty() {
				continue
			}
		}
		if !have {
			out, have = r, true
		} else {
			out = out.Hull(r)
		}
	}
	if !have {
		return geom.Octagon{ULo: 1, UHi: 0} // empty; caller reports
	}
	return out
}

// linearSplit computes the child edge lengths for a linear-model merge in
// closed form. Under the linear model the binding constraints are
//
//	inc(t) = a.hi − b.lo − d + 2t ≤ B   (a's slowest vs b's fastest)
//	dec(t) = b.hi − a.lo + d − 2t ≤ B   (b's slowest vs a's fastest)
//
// giving a feasible window [tlo, thi] that is non-empty whenever it
// intersects [0, d]; otherwise exactly one side must be snaked.
//
// unit: d um -> um, um
func linearSplit(a, b *mnode, d, B float64) (ea, eb float64) {
	tlo := (b.hi - a.lo + d - B) / 2
	thi := (B - a.hi + b.lo + d) / 2
	switch {
	case tlo <= d+1e-12 && thi >= -1e-12:
		// Feasible at total length d. Target the delay-balance point, which
		// minimizes the merged interval's span.
		t0 := (b.hi+b.lo-a.hi-a.lo)/4 + d/2
		t := clampF(t0, math.Max(0, tlo), math.Min(d, thi))
		return t, d - t
	case tlo > d:
		// a is too fast: all wire on a's side plus snaking.
		return b.hi - a.lo - B, 0
	default: // thi < 0
		// b is too fast.
		return 0, a.hi - b.lo - B
	}
}

// clampF clamps x into [lo, hi].
func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// wireCap returns the wire capacitance a merge adds; zero under Linear,
// where capacitance never enters the delay model.
//
// unit: length um -> fF
func (o Options) wireCap(length float64) float64 {
	if o.Model == Linear {
		return 0
	}
	return o.Tech.WireCap(length)
}

// UST returns options for a useful-skew tree under the linear delay model:
// sink i's arrival is scheduled offsets[i] later than the common base, with
// at most slack of residual spread (Tsao/Koh's UST/DME generalization of
// BST — scheduled skews fall out of the initial-delay machinery by
// annotating each sink with the negative of its offset).
func UST(offsets []float64, slack float64) Options {
	return Options{
		Model:     Linear,
		SkewBound: slack,
		SinkDelay: func(i int, _ tree.PinSink) float64 {
			if i < len(offsets) {
				return -offsets[i]
			}
			return 0
		},
	}
}
