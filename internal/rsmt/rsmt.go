// Package rsmt builds rectilinear Steiner minimal trees heuristically. It is
// the repository's substitute for FLUTE: the paper uses FLUTE both as the
// lightest routing topology (Table 1) and as the wirelength reference in the
// lightness metric β ≈ WL(T)/WL(T_FLUTE).
//
// The heuristic is a rectilinear minimum spanning tree followed by greedy
// median-point Steinerization: for adjacent edge pairs (u,a), (u,b), the
// component-wise median s of {u,a,b} lies on rectilinear shortest paths
// between every pair, so replacing the two edges by u–s, s–a, s–b never
// lengthens any path and saves d(u,a)+d(u,b) − d(u,s) − d(s,a) − d(s,b)
// wire. Iterating to a fixed point recovers most of the ~10 % RSMT-vs-RMST
// gap, which is all the β denominator needs.
package rsmt

import (
	"math"

	"sllt/internal/geom"
	"sllt/internal/obs"
	"sllt/internal/tree"
)

// Build returns a rectilinear Steiner tree over the net's source and sinks,
// rooted at the source. Edge lengths equal Manhattan distances (no snaking).
func Build(net *tree.Net) *tree.Tree {
	return BuildK(net, nil)
}

// BuildK is Build with kernel-counter attribution (MST builds and points,
// Steiner insertions, edge-swap moves). A nil kern makes it exactly Build;
// the counters never feed back into any construction decision.
//
// pure:
func BuildK(net *tree.Net, kern *obs.KernelCounters) *tree.Tree {
	if len(net.Sinks)+1 <= hananThreshold {
		t := buildSmall(net)
		SteinerizeK(t, kern)
		ImproveK(t, kern)
		return t
	}
	pts := make([]geom.Point, 0, len(net.Sinks)+1)
	pts = append(pts, net.Source)
	pts = append(pts, net.SinkPoints()...)

	parent := MSTK(pts, kern)
	t := treeFromParents(net, pts, parent)
	SteinerizeK(t, kern)
	ImproveK(t, kern)
	return t
}

// WL returns the wirelength of the heuristic RSMT over the net. It is the β
// denominator used by tree.Measure callers.
func WL(net *tree.Net) float64 { return Build(net).Wirelength() }

// MST computes a minimum spanning tree over pts under Manhattan distance and
// returns the parent index of each point, with parent[0] == -1 (point 0 is
// the root). It is the exhaustive O(n²) Prim scan, which is exact and fast
// at clock-net sizes (tens of pins): the lowest-index unvisited point among
// the minima is picked each round, and ties for a point's best tree
// neighbor keep the earliest-added one.
//
// pure:
func MST(pts []geom.Point) []int {
	return MSTK(pts, nil)
}

// MSTK is MST with kernel-counter attribution: one MSTBuilds tick and the
// point count into MSTPoints. Nil kern makes it exactly MST.
func MSTK(pts []geom.Point, kern *obs.KernelCounters) []int {
	if kern != nil {
		kern.MSTBuilds.Add(1)
		kern.MSTPoints.Add(int64(len(pts)))
	}
	n := len(pts)
	parent := make([]int, n)
	if n == 0 {
		return parent
	}
	inTree := make([]bool, n)
	best := make([]float64, n)
	from := make([]int, n)
	for i := range best {
		best[i] = math.Inf(1)
		from[i] = -1
	}
	parent[0] = -1
	inTree[0] = true
	for i := 1; i < n; i++ {
		best[i] = pts[0].Dist(pts[i])
		from[i] = 0
	}
	for added := 1; added < n; added++ {
		pick := -1
		for i := 0; i < n; i++ {
			if !inTree[i] && (pick < 0 || best[i] < best[pick]) {
				pick = i
			}
		}
		inTree[pick] = true
		parent[pick] = from[pick]
		for i := 0; i < n; i++ {
			if !inTree[i] {
				if d := pts[pick].Dist(pts[i]); d < best[i] {
					best[i] = d
					from[i] = pick
				}
			}
		}
	}
	return parent
}

// MSTWL returns the total Manhattan wirelength of the MST over pts.
func MSTWL(pts []geom.Point) float64 {
	parent := MST(pts)
	var wl float64
	for i, p := range parent {
		if p >= 0 {
			wl += pts[i].Dist(pts[p])
		}
	}
	return wl
}

// treeFromParents converts a parent-index array over [source, sinks...] into
// a rooted tree.Tree. Children are attached in a single breadth-first pass
// (O(n), replacing the old repeated-scan loop): bucketing child indices in
// ascending order and draining parents in BFS rounds reproduces exactly the
// child ordering the round-based attachment produced — every node's children
// arrive in ascending point index.
func treeFromParents(net *tree.Net, pts []geom.Point, parent []int) *tree.Tree {
	t := tree.New(net.Source)
	n := len(pts)
	nodes := make([]*tree.Node, n)
	nodes[0] = t.Root
	for i := 1; i < n; i++ {
		nodes[i] = net.SinkNode(i - 1)
	}
	// Bucket children per parent, ascending child index.
	childCount := make([]int32, n)
	for i := 1; i < n; i++ {
		if p := parent[i]; p >= 0 {
			childCount[p]++
		}
	}
	children := make([][]int32, n)
	backing := make([]int32, 0, n-1)
	off := 0
	for p, c := range childCount {
		children[p] = backing[off : off : off+int(c)]
		off += int(c)
	}
	for i := 1; i < n; i++ {
		if p := parent[i]; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	// BFS from the root; unreachable entries of a malformed parent array are
	// simply never attached, matching the old loop's tolerance.
	queue := make([]int32, 0, n)
	queue = append(queue, 0)
	for head := 0; head < len(queue); head++ {
		p := queue[head]
		for _, c := range children[p] {
			nodes[p].AddChild(nodes[c])
			queue = append(queue, c)
		}
	}
	return t
}

// Steinerize greedily inserts median Steiner points at multi-fanout nodes of
// t until no insertion saves wire. Because every inserted point is the
// component-wise median of the three endpoints, no source-to-sink path
// length increases. The tree is modified in place.
//
// Both sink-parent legality and redundancy cleanup are preserved: Steiner
// insertion only happens below nodes with >= 2 children. Every accepted
// move comes from a full rescan (bestSteinerMove): cluster nets have tens of
// pins, so the rescan stays cheap.
func Steinerize(t *tree.Tree) {
	SteinerizeK(t, nil)
}

// SteinerizeK is Steinerize with accepted insertions counted into
// kern.SteinerInserts (nil kern: exactly Steinerize).
func SteinerizeK(t *tree.Tree, kern *obs.KernelCounters) {
	tree.LegalizeSinkLeaves(t)
	for {
		n, a, b, gain := bestSteinerMove(t)
		if gain <= geom.Eps {
			return
		}
		s := median3(n.Loc, a.Loc, b.Loc)
		a.Detach()
		b.Detach()
		st := tree.NewNode(tree.Steiner, s)
		n.AddChild(st)
		st.AddChild(a)
		st.AddChild(b)
		if kern != nil {
			kern.SteinerInserts.Add(1)
		}
	}
}

// bestSteinerMove scans all (node, child-pair) triples and returns the one
// with the largest wirelength saving.
func bestSteinerMove(t *tree.Tree) (n, a, b *tree.Node, gain float64) {
	t.Walk(func(v *tree.Node) bool {
		for i := 0; i < len(v.Children); i++ {
			for j := i + 1; j < len(v.Children); j++ {
				ca, cb := v.Children[i], v.Children[j]
				s := median3(v.Loc, ca.Loc, cb.Loc)
				g := ca.EdgeLen + cb.EdgeLen -
					(v.Loc.Dist(s) + s.Dist(ca.Loc) + s.Dist(cb.Loc))
				if g > gain {
					n, a, b, gain = v, ca, cb, g
				}
			}
		}
		return true
	})
	return n, a, b, gain
}

// median3 returns the component-wise median of three points: the unique
// point minimizing total Manhattan distance to all three.
func median3(a, b, c geom.Point) geom.Point {
	return geom.Pt(median(a.X, b.X, c.X), median(a.Y, b.Y, c.Y))
}

// median returns the middle of three values.
func median(a, b, c float64) float64 {
	return math.Max(math.Min(a, b), math.Min(math.Max(a, b), c))
}
