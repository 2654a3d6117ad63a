package salt

import (
	"sllt/internal/geom"
	"sllt/internal/tree"
)

// Reroute greedily reattaches subtrees to nearer tree vertices when doing so
// saves wire without pushing any sink's path length beyond
// max((1+eps)·MD(sink), its current length). It is the "optimize" half of
// the paper's Step 3 ("the SALT algorithm is used to relax and optimize
// above topology"): the relaxation bounds shallowness, the rerouting
// recovers lightness. Returns the number of reattachments performed.
func Reroute(t *tree.Tree, eps float64) int {
	if t == nil || t.Root == nil || eps < 0 {
		eps = 0
	}
	moves := 0
	// One reattachment per scan, with bookkeeping rebuilt from scratch in
	// between: O(n²) per move, and the move count is bounded because every
	// move strictly reduces total wirelength.
	maxMoves := 4*len(t.Nodes()) + 8
	for moves < maxMoves {
		if rerouteOnce(t, eps) == 0 {
			break
		}
		moves++
	}
	// Reattachment targets may be sinks; restore the load-pins-are-leaves
	// invariant by splitting them into Steiner + zero-length leaf.
	tree.LegalizeSinkLeaves(t)
	return moves
}

func rerouteOnce(t *tree.Tree, eps float64) int {
	root := t.Root
	// Preorder: v's subtree is nodes[x:last[x]] for v = nodes[x], so every
	// table is indexed by preorder position.
	nodes := t.Nodes()
	pl := make([]float64, len(nodes))
	for x, v := range nodes {
		pl[x] = tree.PathLength(v)
	}
	// slack[x]: the largest uniform path increase the sinks below nodes[x]
	// (and nodes[x] itself, if a sink) can absorb while staying within
	// (1+eps)·MD. Nodes with no sinks below have unlimited slack.
	slack := make([]float64, len(nodes))
	last := make([]int, len(nodes))
	next := 0
	var number func(v *tree.Node) float64
	number = func(v *tree.Node) float64 {
		x := next
		next++
		s := 1e18
		if v.Kind == tree.Sink {
			md := root.Loc.Dist(v.Loc)
			s = (1+eps)*md - pl[x]
		}
		for _, c := range v.Children {
			if cs := number(c); cs < s {
				s = cs
			}
		}
		slack[x], last[x] = s, next
		return s
	}
	number(root)

	for xv, v := range nodes {
		if v.Parent == nil {
			continue
		}
		up := v.Parent.Loc.Dist(v.Loc)
		bestGain := geom.Eps
		var bestW *tree.Node
		for xw := 0; xw < len(nodes); xw++ {
			if xw == xv {
				xw = last[xv] - 1 // skip v's subtree
				continue
			}
			w := nodes[xw]
			if w == v.Parent {
				continue
			}
			dw := w.Loc.Dist(v.Loc)
			gain := up - dw
			if gain <= bestGain {
				continue
			}
			delta := pl[xw] + dw - pl[xv]
			if delta > slack[xv]+1e-9 && delta > 1e-9 {
				continue // would overrun a sink's shallowness budget
			}
			bestGain, bestW = gain, w
		}
		if bestW != nil {
			v.Detach()
			bestW.AddChild(v)
			// Conservative single-move-per-pass bookkeeping: recompute on
			// the next pass rather than patching pl/slack incrementally.
			return 1
		}
	}
	return 0
}
