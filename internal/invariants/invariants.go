// Package invariants provides a runtime checker for clock-tree structural
// and electrical invariants, for use in test suites after every tree
// construction or transformation. It complements the determinism tests,
// which compare runs, and the lint gate (internal/analysis): those keep the
// algorithms reproducible, this package keeps the trees they build
// well-formed at run time.
//
// CheckTree is the entry point; the finer-grained checks (CheckLoad,
// CheckSkew, CheckGamma) let suites assert the electrical bounds their
// algorithm declares.
package invariants

import (
	"fmt"
	"math"

	"sllt/internal/geom"
	"sllt/internal/tree"
)

// CheckTree verifies the structural invariants every clock tree in this
// repository must satisfy:
//
//   - the tree and its root are non-nil, and the root has no parent and a
//     zero incoming edge;
//   - the node graph is acyclic and nodes are not shared between branches;
//   - parent/child pointers are symmetric in both directions (each child's
//     Parent is its parent, and each node's Parent lists it as a child);
//   - sinks are leaves;
//   - every edge length is finite, non-negative and at least the Manhattan
//     distance between its endpoints (wire may snake, never tunnel);
//   - coordinates are finite and pin capacitances are finite and
//     non-negative.
//
// It returns the first violation found, or nil.
func CheckTree(t *tree.Tree) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("invariants: nil tree")
	}
	if t.Root.Parent != nil {
		return fmt.Errorf("invariants: root has a parent")
	}
	if t.Root.EdgeLen != 0 {
		//slltlint:ignore floatcmp the root edge must be exactly zero, not merely small
		return fmt.Errorf("invariants: root has incoming edge length %g", t.Root.EdgeLen)
	}
	seen := make(map[*tree.Node]bool)
	var err error
	var rec func(n *tree.Node) bool
	rec = func(n *tree.Node) bool {
		if seen[n] {
			err = fmt.Errorf("invariants: cycle or shared node %q at %v", n.Name, n.Loc)
			return false
		}
		seen[n] = true
		if err = checkNodeScalars(n); err != nil {
			return false
		}
		if n.Kind == tree.Sink && len(n.Children) > 0 {
			err = fmt.Errorf("invariants: sink %q at %v has %d children", n.Name, n.Loc, len(n.Children))
			return false
		}
		for _, c := range n.Children {
			if c == nil {
				err = fmt.Errorf("invariants: node at %v has a nil child", n.Loc)
				return false
			}
			if c.Parent != n {
				err = fmt.Errorf("invariants: child %q at %v points at the wrong parent", c.Name, c.Loc)
				return false
			}
			// Scalars first: a non-finite child location would poison the
			// Manhattan-distance comparison below.
			if err = checkNodeScalars(c); err != nil {
				return false
			}
			if md := n.Loc.Dist(c.Loc); c.EdgeLen < md-geom.Eps {
				err = fmt.Errorf("invariants: edge %v→%v length %g below Manhattan distance %g",
					n.Loc, c.Loc, c.EdgeLen, md)
				return false
			}
			if !rec(c) {
				return false
			}
		}
		return true
	}
	rec(t.Root)
	return err
}

func checkNodeScalars(n *tree.Node) error {
	if math.IsNaN(n.Loc.X) || math.IsInf(n.Loc.X, 0) ||
		math.IsNaN(n.Loc.Y) || math.IsInf(n.Loc.Y, 0) {
		return fmt.Errorf("invariants: node %q has non-finite location %v", n.Name, n.Loc)
	}
	if math.IsNaN(n.EdgeLen) || math.IsInf(n.EdgeLen, 0) || n.EdgeLen < 0 {
		return fmt.Errorf("invariants: node %q at %v has bad edge length %g", n.Name, n.Loc, n.EdgeLen)
	}
	if math.IsNaN(n.PinCap) || math.IsInf(n.PinCap, 0) || n.PinCap < 0 {
		return fmt.Errorf("invariants: node %q at %v has bad pin cap %g", n.Name, n.Loc, n.PinCap)
	}
	return nil
}

// CheckLoad verifies the non-negative capacitance accounting of the tree:
// every subtree's load (pin caps plus wire cap at capPerUnit fF per unit)
// is non-negative, and the per-subtree sums add up to the root total
// reported by Tree.TotalLoad. A mismatch means some transformation
// double-counted or dropped capacitance.
func CheckLoad(t *tree.Tree, capPerUnit float64) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("invariants: nil tree")
	}
	if capPerUnit < 0 {
		return fmt.Errorf("invariants: negative capPerUnit %g", capPerUnit)
	}
	var err error
	var rec func(n *tree.Node) float64
	rec = func(n *tree.Node) float64 {
		load := n.EdgeLen * capPerUnit
		if n.Kind == tree.Sink || n.Kind == tree.Buffer {
			load += n.PinCap
		}
		if load < 0 && err == nil {
			err = fmt.Errorf("invariants: negative load contribution %g at %v", load, n.Loc)
		}
		for _, c := range n.Children {
			sub := rec(c)
			if sub < 0 && err == nil {
				err = fmt.Errorf("invariants: negative subtree load %g under %v", sub, c.Loc)
			}
			load += sub
		}
		return load
	}
	total := rec(t.Root)
	if err != nil {
		return err
	}
	want := t.TotalLoad(capPerUnit)
	if !almostEqualRel(total, want) {
		return fmt.Errorf("invariants: load accounting mismatch: bottom-up %g vs walk %g", total, want)
	}
	return nil
}

// CheckSkew verifies that the path-length skew (max − min source-to-sink
// path length) does not exceed bound, with tol absorbing float round-off.
// Trees with fewer than two sinks trivially pass.
func CheckSkew(t *tree.Tree, bound, tol float64) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("invariants: nil tree")
	}
	minPL, maxPL := math.Inf(1), math.Inf(-1)
	n := 0
	for _, s := range t.Sinks() {
		pl := tree.PathLength(s)
		minPL = math.Min(minPL, pl)
		maxPL = math.Max(maxPL, pl)
		n++
	}
	if n < 2 {
		return nil
	}
	if skew := maxPL - minPL; skew > bound+tol {
		return fmt.Errorf("invariants: skew %g exceeds declared bound %g (max PL %g, min PL %g)",
			skew, bound, maxPL, minPL)
	}
	return nil
}

// CheckGamma verifies the skewness γ = max PL / mean PL (Definition 2.1)
// stays within the declared bound, with tol absorbing float round-off.
// Trees with no sinks or zero mean path length trivially pass.
func CheckGamma(t *tree.Tree, gamma, tol float64) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("invariants: nil tree")
	}
	var sum, maxPL float64
	n := 0
	for _, s := range t.Sinks() {
		pl := tree.PathLength(s)
		sum += pl
		maxPL = math.Max(maxPL, pl)
		n++
	}
	if n == 0 {
		return nil
	}
	mean := sum / float64(n)
	if geom.Sign(mean) == 0 {
		return nil
	}
	if g := maxPL / mean; g > gamma+tol {
		return fmt.Errorf("invariants: skewness γ=%g exceeds declared bound %g", g, gamma)
	}
	return nil
}

// almostEqualRel compares with a relative tolerance so load totals on large
// trees (thousands of edges) are not failed by accumulation order.
func almostEqualRel(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= geom.Eps {
		return true
	}
	return diff <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}
