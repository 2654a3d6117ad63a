package cts

import (
	"math"

	"sllt/internal/dme"
	"sllt/internal/timing"
	"sllt/internal/tree"
)

// estimateLatency returns the insertion-delay annotation for a cluster
// driver according to the configured estimation mode: 0 (none), the
// Equation-7 lower-bound propagation (the paper's choice — conservative,
// cheap, and stable under later re-buffering), or the max latency of full
// timing on the (detached) subtree.
//
// unit: -> ps, _
func estimateLatency(driver *tree.Node, opts Options) (float64, error) {
	switch opts.Est {
	case EstNone:
		return 0, nil
	case EstExact:
		rep, err := timing.Analyze(&tree.Tree{Root: driver}, opts.Lib, opts.Tech, opts.SourceSlew)
		if err != nil {
			return 0, err
		}
		return rep.MaxLatency, nil
	default:
		return lowerBoundLatency(driver, opts), nil
	}
}

// lowerBoundLatency propagates wire Elmore delays plus the Equation-7
// buffer lower bound through the subtree.
//
// unit: -> ps
func lowerBoundLatency(driver *tree.Node, opts Options) float64 {
	caps := timing.StageCaps(driver, opts.Tech)
	var maxLat float64
	var walk func(n *tree.Node, d float64)
	walk = func(n *tree.Node, d float64) {
		if n.Kind == tree.Buffer {
			d += opts.Lib.InsertionDelayLowerBound(timing.BufferLoad(n, caps, opts.Tech))
		}
		if n.Kind == tree.Sink && d > maxLat {
			maxLat = d
		}
		for _, c := range n.Children {
			walk(c, d+opts.Tech.WireElmore(c.EdgeLen, caps[c]))
		}
	}
	walk(driver, 0)
	return maxLat
}

// repairBuffered restores the per-net skew bound after buffer insertion by
// snaking the edges of too-fast subtrees, exactly like dme.RepairSkew but
// with buffer stage delays in the delay model. Because added wire loads the
// buffer driving it (raising that whole cone equally), the pass iterates to
// a fixed point.
//
// unit: bound ps ->
func repairBuffered(t *tree.Tree, opts Options, dopts dme.Options, bound float64) {
	for iter := 0; iter < 4; iter++ {
		caps := timing.StageCaps(t.Root, opts.Tech)
		padded := false

		type interval struct{ lo, hi float64 }
		var repair func(n *tree.Node) interval
		repair = func(n *tree.Node) interval {
			if len(n.Children) == 0 {
				var d0 float64
				if n.Kind == tree.Sink && dopts.SinkDelay != nil && n.SinkIdx >= 0 {
					d0 = dopts.SinkDelay(n.SinkIdx, tree.PinSink{Loc: n.Loc, Cap: n.PinCap})
				}
				return interval{d0, d0}
			}
			var bufDelay float64
			if n.Kind == tree.Buffer {
				if cell := opts.Lib.Cell(n.BufCell); cell != nil {
					bufDelay = cell.Delay(opts.SourceSlew, timing.BufferLoad(n, caps, opts.Tech))
				}
			}
			type kid struct {
				n        *tree.Node
				slo, shi float64
			}
			kids := make([]kid, 0, len(n.Children))
			hmax := math.Inf(-1)
			for _, c := range n.Children {
				iv := repair(c)
				kids = append(kids, kid{c, iv.lo, iv.hi})
				if hi := iv.hi + opts.Tech.WireElmore(c.EdgeLen, caps[c]); hi > hmax {
					hmax = hi
				}
			}
			out := interval{math.Inf(1), math.Inf(-1)}
			for _, k := range kids {
				e := opts.Tech.WireElmore(k.n.EdgeLen, caps[k.n])
				if target := hmax - bound - k.slo; e < target-1e-9 {
					// Extend this edge so its subtree is no longer fast.
					newLen := opts.Tech.ElmoreLength(target, caps[k.n])
					if newLen > k.n.EdgeLen {
						k.n.EdgeLen = newLen
						padded = true
						e = opts.Tech.WireElmore(k.n.EdgeLen, caps[k.n])
					}
				}
				out.lo = min(out.lo, k.slo+e)
				out.hi = max(out.hi, k.shi+e)
			}
			return interval{out.lo + bufDelay, out.hi + bufDelay}
		}
		repair(t.Root)
		if !padded {
			return
		}
	}
}
