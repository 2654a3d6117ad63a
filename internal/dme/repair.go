package dme

import (
	"fmt"
	"math"

	"sllt/internal/tree"
)

// RepairSkew performs bounded-skew balancing on a tree whose topology and
// node placement are already fixed: the degenerate form of BST-DME in which
// every merging region is pinned to its embedded point, leaving only the
// per-edge wire lengths (snaking) as free variables. This is the paper's CBS
// Step 5: running BST on the topology that SALT relaxation produced, so the
// final tree "closely approximates the result by SALT" while restoring skew
// legality.
//
// The pass is a single bottom-up sweep. At every internal node the children's
// delay intervals are aligned by snaking each entirely-too-fast child's edge
// with just enough wire that the merged interval spans at most the bound.
// Padding is therefore applied as high in the tree as possible (one shared
// snake fixes a whole fast subtree), which minimizes added wire. For the
// Elmore model the added wire's capacitance is accounted for bottom-up, so
// upstream edge delays see the repaired subtree loads; upstream padding
// shifts whole subtrees equally and cannot break spans already established.
//
// Sinks pick up initial delays from opts.SinkDelay (keyed by Node.SinkIdx)
// so hierarchical CTS can balance cluster roots that already drive subtrees.
func RepairSkew(t *tree.Tree, net *tree.Net, opts Options) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("dme: repair on nil tree")
	}
	B := opts.SkewBound

	// repair returns the subtree's delay interval measured from n, and the
	// total downstream capacitance at n (pins + wires below, excluding n's
	// own incoming edge).
	var repair func(n *tree.Node) (lo, hi, cap float64, err error)
	repair = func(n *tree.Node) (float64, float64, float64, error) {
		ownCap := 0.0
		if n.Kind == tree.Sink || n.Kind == tree.Buffer {
			ownCap = n.PinCap
		}
		if len(n.Children) == 0 {
			var d0 float64
			if n.Kind == tree.Sink && n.SinkIdx >= 0 && net != nil && n.SinkIdx < len(net.Sinks) {
				s := net.Sinks[n.SinkIdx]
				if opts.SinkDelay != nil {
					d0 = opts.SinkDelay(n.SinkIdx, s)
				}
			}
			return d0, d0, ownCap, nil
		}

		type kid struct {
			n        *tree.Node
			slo, shi float64 // interval below the child, measured from it
			cap      float64
		}
		kids := make([]kid, 0, len(n.Children))
		hmax := math.Inf(-1)
		for _, c := range n.Children {
			slo, shi, cap, err := repair(c)
			if err != nil {
				return 0, 0, 0, err
			}
			kids = append(kids, kid{c, slo, shi, cap})
			if hi := shi + opts.delayAdd(c.EdgeLen, cap); hi > hmax {
				hmax = hi
			}
		}

		mlo, mhi := math.Inf(1), math.Inf(-1)
		capSum := ownCap
		for _, k := range kids {
			e := opts.delayAdd(k.n.EdgeLen, k.cap)
			if target := hmax - B - k.slo; e < target-1e-12 {
				// Entirely too fast: snake this edge so its slowest-case
				// alignment leaves the merged span within the bound. The
				// child's own span is <= B by induction, so its new high end
				// (hmax - B + span) cannot exceed hmax.
				k.n.EdgeLen = opts.invDelayAdd(target, k.cap)
				e = opts.delayAdd(k.n.EdgeLen, k.cap)
				if opts.Kernel != nil {
					opts.Kernel.DMESnakes.Add(1)
				}
			}
			mlo = min(mlo, k.slo+e)
			mhi = max(mhi, k.shi+e)
			capSum += k.cap + opts.wireCap(k.n.EdgeLen)
		}
		if mhi-mlo > B+1e-6 {
			return 0, 0, 0, fmt.Errorf("dme: repair failed at %v: span %g > bound %g", n.Loc, mhi-mlo, B)
		}
		return mlo, mhi, capSum, nil
	}
	_, _, _, err := repair(t.Root)
	return err
}
