// Package invariants provides a runtime checker for clock-tree structural
// and electrical invariants, for use in test suites after every tree
// construction or transformation. It complements the determinism tests,
// which compare runs, and the lint gate (internal/analysis): those keep the
// algorithms reproducible, this package keeps the trees they build
// well-formed at run time.
//
// The structural checks live in tree.(*Tree).Validate, the one tree
// validator; CheckTree delegates to it. The electrical checks (CheckLoad,
// CheckSkew, CheckGamma) let suites assert the bounds their algorithm
// declares.
package invariants

import (
	"fmt"
	"math"

	"sllt/internal/geom"
	"sllt/internal/tree"
)

// CheckTree verifies the structural invariants every clock tree in this
// repository must satisfy; it is tree.(*Tree).Validate, which lists them.
func CheckTree(t *tree.Tree) error { return t.Validate() }

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
		minPL = min(minPL, pl)
		maxPL = max(maxPL, pl)
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
		maxPL = max(maxPL, pl)
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
	return diff <= 1e-9*max(math.Abs(a), math.Abs(b))
}
