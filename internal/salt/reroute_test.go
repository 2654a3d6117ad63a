package salt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/rsmt"
	"sllt/internal/tree"
)

func TestRerouteNeverIncreasesWL(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 20; trial++ {
		net := randomNet(rng, 5+rng.Intn(30), 100)
		tr := Build(net, 0.2)
		before := tr.Wirelength()
		Reroute(tr, 0.2)
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if after := tr.Wirelength(); after > before+geom.Eps {
			t.Fatalf("trial %d: reroute grew WL %g -> %g", trial, before, after)
		}
		if got := len(tr.Sinks()); got != len(net.Sinks) {
			t.Fatalf("trial %d: sink count changed", trial)
		}
	}
}

func TestRerouteRespectsShallownessBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const eps = 0.3
	for trial := 0; trial < 20; trial++ {
		net := randomNet(rng, 10+rng.Intn(20), 100)
		tr := Build(net, eps)
		Reroute(tr, eps)
		for _, s := range tr.Sinks() {
			md := net.Source.Dist(s.Loc)
			if pl := tree.PathLength(s); pl > (1+eps)*md+1e-6 {
				t.Fatalf("trial %d: sink PL %g exceeds (1+eps)MD %g after reroute", trial, pl, (1+eps)*md)
			}
		}
	}
}

// A star tree (every sink wired from the source) should collapse toward an
// MST-like structure when eps is generous.
func TestRerouteImprovesStar(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	net := randomNet(rng, 20, 100)
	star := tree.New(net.Source)
	for i := range net.Sinks {
		star.Root.AddChild(net.SinkNode(i))
	}
	before := star.Wirelength()
	Reroute(star, 10)
	after := star.Wirelength()
	if after >= before {
		t.Fatalf("reroute failed to improve star: %g -> %g", before, after)
	}
	// With an essentially unconstrained budget the result should approach
	// the MST (within a generous factor).
	pts := append([]geom.Point{net.Source}, net.SinkPoints()...)
	if mst := rsmt.MSTWL(pts); after > 1.3*mst {
		t.Errorf("rerouted star WL %g still far above MST %g", after, mst)
	}
}

// oracleReroute is Reroute with its bookkeeping in maps keyed by node and
// subtree membership tested by preorder interval: the version that the
// preorder-indexed tables replace.
func oracleReroute(t *tree.Tree, eps float64) int {
	if t == nil || t.Root == nil || eps < 0 {
		eps = 0
	}
	moves := 0
	maxMoves := 4*len(t.Nodes()) + 8
	for moves < maxMoves {
		if oracleRerouteOnce(t, eps) == 0 {
			break
		}
		moves++
	}
	tree.LegalizeSinkLeaves(t)
	return moves
}

func oracleRerouteOnce(t *tree.Tree, eps float64) int {
	root := t.Root
	nodes := t.Nodes()
	pl := make(map[*tree.Node]float64, len(nodes))
	for _, n := range nodes {
		pl[n] = tree.PathLength(n)
	}
	slack := make(map[*tree.Node]float64, len(nodes))
	var comp func(n *tree.Node) float64
	comp = func(n *tree.Node) float64 {
		s := 1e18
		if n.Kind == tree.Sink {
			md := root.Loc.Dist(n.Loc)
			s = (1+eps)*md - pl[n]
		}
		for _, c := range n.Children {
			if cs := comp(c); cs < s {
				s = cs
			}
		}
		slack[n] = s
		return s
	}
	comp(root)
	index := make(map[*tree.Node]int, len(nodes))
	last := make(map[*tree.Node]int, len(nodes))
	i := 0
	var number func(n *tree.Node)
	number = func(n *tree.Node) {
		index[n] = i
		i++
		for _, c := range n.Children {
			number(c)
		}
		last[n] = i
	}
	number(root)
	inSub := func(w, v *tree.Node) bool { return index[w] >= index[v] && index[w] < last[v] }
	for _, v := range nodes {
		if v.Parent == nil {
			continue
		}
		bestGain := geom.Eps
		var bestW *tree.Node
		for _, w := range nodes {
			if w == v.Parent || inSub(w, v) {
				continue
			}
			gain := v.Parent.Loc.Dist(v.Loc) - w.Loc.Dist(v.Loc)
			if gain <= bestGain {
				continue
			}
			delta := pl[w] + w.Loc.Dist(v.Loc) - pl[v]
			if delta > slack[v]+1e-9 && delta > 1e-9 {
				continue
			}
			bestGain, bestW = gain, w
		}
		if bestW != nil {
			v.Detach()
			bestW.AddChild(v)
			return 1
		}
	}
	return 0
}

// treeShape lists, in preorder, each node's kind, location, edge length,
// child count and parent position: equal shapes are the same tree.
func treeShape(t *tree.Tree) []string {
	pos := map[*tree.Node]int{}
	var out []string
	t.Walk(func(n *tree.Node) bool {
		pos[n] = len(out)
		parent := -1
		if n.Parent != nil {
			parent = pos[n.Parent]
		}
		out = append(out, fmt.Sprintf("%v %v %v %d %d", n.Kind, n.Loc, n.EdgeLen, len(n.Children), parent))
		return true
	})
	return out
}

// TestRerouteMatchesOracle runs Reroute and the map-keyed oracle on twin
// trees, SALT-built and star-shaped, over random integer-grid nets (where
// gain ties are common) and compares the move counts and the trees.
func TestRerouteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := range 60 {
		net := randomNet(rng, 3+rng.Intn(40), float64(20+rng.Intn(200)))
		eps := []float64{0, 0.1, 0.3, 2}[trial%4]
		build := func() *tree.Tree {
			if trial%2 == 0 {
				return Build(net, eps)
			}
			star := tree.New(net.Source)
			for i := range net.Sinks {
				star.Root.AddChild(net.SinkNode(i))
			}
			return star
		}
		got, want := build(), build()
		gm, wm := Reroute(got, eps), oracleReroute(want, eps)
		if gm != wm {
			t.Fatalf("trial %d: %d moves, oracle %d", trial, gm, wm)
		}
		gs, ws := treeShape(got), treeShape(want)
		if !slices.Equal(gs, ws) {
			t.Fatalf("trial %d: rerouted tree differs from the oracle's", trial)
		}
		if trial%2 == 1 && gm == 0 {
			t.Fatalf("trial %d: the star made no move", trial)
		}
	}
}
