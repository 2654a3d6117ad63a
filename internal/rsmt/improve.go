package rsmt

import (
	"sllt/internal/geom"
	"sllt/internal/tree"
)

// Improve runs unconstrained wirelength local search on t: alternating
// edge swaps (reattach a subtree to the nearest non-descendant vertex when
// that shortens its incoming edge) with median-point Steinerization, until
// neither pass finds a saving. Every accepted move strictly reduces total
// wirelength, so the loop terminates.
func Improve(t *tree.Tree) {
	for pass := 0; pass < 16; pass++ {
		moved := edgeSwapOnce(t)
		Steinerize(t, nil)
		tree.RemoveRedundantSteiner(t)
		if moved == 0 {
			return
		}
	}
}

// swapOrder renumbers the tree into order/last: order is the current
// preorder, and a node at position p roots the subtree order[p:last[p]].
// Both slices are reused across iterations — the bookkeeping the old
// implementation rebuilt as fresh maps inside every retry of the inner loop
// is now two O(n) slice passes with zero allocation.
func swapOrder(t *tree.Tree, order []*tree.Node, last []int) ([]*tree.Node, []int) {
	order, last = order[:0], last[:0]
	var number func(n *tree.Node)
	number = func(n *tree.Node) {
		pos := len(order)
		order = append(order, n)
		last = append(last, 0)
		for _, c := range n.Children {
			number(c)
		}
		last[pos] = len(order)
	}
	number(t.Root)
	return order, last
}

// edgeSwapOnce applies every profitable reattachment it finds, best-first,
// until none remains, and reports the number of accepted moves. Every
// (vertex, candidate parent) pair is scored each round, the single best
// reattachment applied, and the preorder intervals refreshed; ties go to the
// first strict improvement in preorder.
func edgeSwapOnce(t *tree.Tree) int {
	moves := 0
	var order []*tree.Node
	var last []int
	for {
		order, last = swapOrder(t, order, last)
		var bestV, bestW *tree.Node
		bestGain := geom.Eps
		for vp, v := range order {
			if v.Parent == nil {
				continue
			}
			cur := v.Parent.Loc.Dist(v.Loc)
			for wp, w := range order {
				if w == v.Parent || (wp >= vp && wp < last[vp]) {
					continue
				}
				if gain := cur - w.Loc.Dist(v.Loc); gain > bestGain {
					bestGain, bestV, bestW = gain, v, w
				}
			}
		}
		if bestV == nil {
			break
		}
		bestV.Detach()
		bestW.AddChild(bestV)
		moves++
	}
	if moves > 0 {
		tree.LegalizeSinkLeaves(t)
	}
	return moves
}
