// Package salt implements rectilinear Steiner shallow-light trees (R-SALT,
// Chen & Young, "SALT: Provably Good Routing Topology by a Novel Steiner
// Shallow-Light Tree Algorithm").
//
// A shallow-light tree approximates the shortest-path tree (shallowness
// α = max PL(s)/MD(s) ≤ 1+ε) while staying close to the minimum Steiner tree
// in weight (lightness β). The construction here follows the KRY recipe the
// SALT paper builds on: traverse a light seed tree depth-first and, whenever
// a vertex's tree path exceeds (1+ε) times its Manhattan distance from the
// source, reattach it to the best already-visited vertex that restores the
// bound — then recover wirelength with median-point Steinerization, which
// never lengthens a path.
package salt

import (
	"sllt/internal/obs"
	"sllt/internal/rsmt"
	"sllt/internal/tree"
)

// Build constructs an R-SALT tree over the net with shallowness parameter
// eps >= 0. The result satisfies PL(s) <= (1+eps)·MD(s) for every sink s.
// eps = 0 yields a shortest-path Steiner tree (α = 1).
func Build(net *tree.Net, eps float64) *tree.Tree {
	t := rsmt.Build(net)
	Relax(t, eps, nil)
	return t
}

// Relax applies the shallow-light transformation to t in place: the paper's
// CBS Step 3. All wire snaking is removed (edges are reset to Manhattan
// length — this deliberately "breaks the skew legitimacy" as the paper puts
// it; a later BST pass restores it), and any vertex whose root path exceeds
// (1+eps)·MD is reconnected to the cheapest visited vertex that restores the
// bound. A final Steinerization pass recovers wirelength without lengthening
// any path. A non-nil kern receives the final Steinerization pass's kernel
// counters.
func Relax(t *tree.Tree, eps float64, kern *obs.KernelCounters) {
	if t == nil || t.Root == nil {
		return
	}
	root := t.Root
	if eps < 0 {
		eps = 0
	}
	bound := 1 + eps

	// Vertices visited so far in DFS preorder, with their (current) root
	// path lengths. Reattachment targets come from this set, which can
	// never contain a descendant of the vertex being moved.
	order := []*tree.Node{root}
	dist := map[*tree.Node]float64{root: 0}

	var dfs func(n *tree.Node)
	dfs = func(n *tree.Node) {
		// Copy: reattachment rewrites children slices during iteration.
		kids := append([]*tree.Node(nil), n.Children...)
		for _, c := range kids {
			if c.Parent != n {
				continue // moved away by an earlier reattachment
			}
			// Drop snaking: the relaxation works on pure geometry.
			c.EdgeLen = n.Loc.Dist(c.Loc)
			d := dist[n] + c.EdgeLen
			md := root.Loc.Dist(c.Loc)
			if d > bound*md+1e-9 {
				// Too deep: reattach to the cheapest visited vertex w with
				// dist(w) + d(w,c) within the bound. The root always
				// qualifies (0 + MD <= bound·MD).
				bestW := root
				bestWire := root.Loc.Dist(c.Loc)
				for _, w := range order {
					wire := w.Loc.Dist(c.Loc)
					if dist[w]+wire <= bound*md+1e-9 && wire < bestWire {
						bestW, bestWire = w, wire
					}
				}
				c.Detach()
				bestW.AddChild(c)
				d = dist[bestW] + bestWire
			}
			order = append(order, c)
			dist[c] = d
			dfs(c)
		}
	}
	dfs(root)

	rsmt.Steinerize(t, kern)
	tree.RemoveRedundantSteiner(t)
}
