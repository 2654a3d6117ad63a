package dme

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sllt/internal/geom"
	"sllt/internal/invariants"
	"sllt/internal/tech"
	"sllt/internal/tree"
)

func quickNet(seed int64, n int) *tree.Net {
	rng := rand.New(rand.NewSource(seed))
	if n < 2 {
		n = 2
	}
	if n > 30 {
		n = 2 + n%29
	}
	net := &tree.Net{Source: geom.Pt(50, 50)}
	used := map[geom.Point]bool{}
	for len(net.Sinks) < n {
		p := geom.Pt(float64(rng.Intn(100)), float64(rng.Intn(100)))
		if used[p] {
			continue
		}
		used[p] = true
		net.Sinks = append(net.Sinks, tree.PinSink{Name: "s", Loc: p, Cap: 1.2})
	}
	return net
}

// Property: for any net, topology method and non-negative bound, linear BST
// yields a valid tree whose path-length skew respects the bound and whose
// wirelength is at least the MST lower bound divided by the Steiner ratio.
func TestQuickBSTContract(t *testing.T) {
	f := func(seed int64, n int, methodPick uint8, boundPick uint8) bool {
		net := quickNet(seed, n)
		method := AllTopoMethods[int(methodPick)%len(AllTopoMethods)]
		bound := float64(boundPick%100) / 2 // 0..49.5 µm
		topo := GenTopo(net, method, bound)
		if err := topo.Validate(len(net.Sinks)); err != nil {
			return false
		}
		tr, err := Build(net, topo, BST(bound))
		if err != nil {
			return false
		}
		if err := invariants.CheckTree(tr); err != nil {
			return false
		}
		if len(tr.Sinks()) != len(net.Sinks) {
			return false
		}
		return invariants.CheckSkew(tr, bound, 1e-6) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Elmore BST respects the ps bound for arbitrary region greeds.
func TestQuickElmoreRegionContract(t *testing.T) {
	tc := tech.Default28nm()
	f := func(seed int64, n int, boundPick, greedPick uint8) bool {
		net := quickNet(seed, n)
		bound := 1 + float64(boundPick%40) // 1..40 ps
		greed := float64(greedPick%101) / 100
		opts := Options{Model: Elmore, SkewBound: bound, Tech: tc, RegionGreed: greed}
		topo := GenTopo(net, GreedyDist, opts.LengthBudget(net))
		tr, err := Build(net, topo, opts)
		if err != nil {
			return false
		}
		if err := invariants.CheckTree(tr); err != nil {
			return false
		}
		return elmoreSkew(tr, tc) <= bound+1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: RepairSkew enforces its bound on arbitrary star trees with
// random initial sink delays (linear model is exact in one pass).
func TestQuickRepairSkewContract(t *testing.T) {
	f := func(seed int64, n int, boundPick uint8) bool {
		net := quickNet(seed, n)
		rng := rand.New(rand.NewSource(seed ^ 0xbeef))
		delays := make([]float64, len(net.Sinks))
		for i := range delays {
			delays[i] = rng.Float64() * 30
		}
		tr := tree.New(net.Source)
		for i := range net.Sinks {
			tr.Root.AddChild(net.SinkNode(i))
		}
		bound := float64(boundPick % 50)
		opts := BST(bound)
		opts.SinkDelay = func(i int, s tree.PinSink) float64 { return delays[i] }
		if err := RepairSkew(tr, net, opts); err != nil {
			return false
		}
		if err := invariants.CheckTree(tr); err != nil {
			return false
		}
		lo, hi := 1e18, -1e18
		for _, s := range tr.Sinks() {
			d := tree.PathLength(s) + delays[s.SinkIdx]
			if d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		return hi-lo <= bound+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
