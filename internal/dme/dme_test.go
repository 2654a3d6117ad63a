package dme

import (
	"math"
	"math/rand"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/invariants"
	"sllt/internal/tech"
	"sllt/internal/tree"
)

func randomNet(rng *rand.Rand, n int, box float64) *tree.Net {
	net := &tree.Net{Name: "r", Source: geom.Pt(rng.Float64()*box, rng.Float64()*box)}
	used := map[geom.Point]bool{}
	for len(net.Sinks) < n {
		p := geom.Pt(float64(rng.Intn(int(box))), float64(rng.Intn(int(box))))
		if used[p] {
			continue
		}
		used[p] = true
		net.Sinks = append(net.Sinks, tree.PinSink{Name: "s", Loc: p, Cap: 1.2})
	}
	return net
}

// pathSkew returns max-min source-to-sink path length.
func pathSkew(t *tree.Tree) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range t.Sinks() {
		pl := tree.PathLength(s)
		lo = math.Min(lo, pl)
		hi = math.Max(hi, pl)
	}
	return hi - lo
}

// elmore computes per-sink Elmore delays of an unbuffered tree.
func elmore(t *tree.Tree, tc tech.Tech) map[*tree.Node]float64 {
	caps := map[*tree.Node]float64{}
	var capOf func(n *tree.Node) float64
	capOf = func(n *tree.Node) float64 {
		c := n.PinCap
		for _, ch := range n.Children {
			c += tc.WireCap(ch.EdgeLen) + capOf(ch)
		}
		caps[n] = c
		return c
	}
	capOf(t.Root)
	delays := map[*tree.Node]float64{t.Root: 0}
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		for _, ch := range n.Children {
			delays[ch] = delays[n] + tc.WireElmore(ch.EdgeLen, caps[ch])
			walk(ch)
		}
	}
	walk(t.Root)
	return delays
}

func elmoreSkew(t *tree.Tree, tc tech.Tech) float64 {
	d := elmore(t, tc)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range t.Sinks() {
		lo = math.Min(lo, d[s])
		hi = math.Max(hi, d[s])
	}
	return hi - lo
}

func TestZSTLinearZeroSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, method := range AllTopoMethods {
		for trial := 0; trial < 15; trial++ {
			net := randomNet(rng, 2+rng.Intn(30), 100)
			topo := GenTopo(net, method, 0)
			tr, err := Build(net, topo, ZST())
			if err != nil {
				t.Fatalf("%v trial %d: %v", method, trial, err)
			}
			if err := invariants.CheckTree(tr); err != nil {
				t.Fatalf("%v trial %d: %v", method, trial, err)
			}
			if got := len(tr.Sinks()); got != len(net.Sinks) {
				t.Fatalf("%v trial %d: %d sinks, want %d", method, trial, got, len(net.Sinks))
			}
			if err := invariants.CheckSkew(tr, 0, 1e-6); err != nil {
				t.Fatalf("%v trial %d: %v", method, trial, err)
			}
		}
	}
}

func TestBSTLinearSkewBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, bound := range []float64{1, 5, 20, 80} {
		for trial := 0; trial < 10; trial++ {
			net := randomNet(rng, 5+rng.Intn(30), 120)
			topo := GenTopo(net, GreedyDist, bound)
			tr, err := Build(net, topo, BST(bound))
			if err != nil {
				t.Fatalf("bound %g trial %d: %v", bound, trial, err)
			}
			if err := invariants.CheckTree(tr); err != nil {
				t.Fatalf("bound %g trial %d: %v", bound, trial, err)
			}
			if err := invariants.CheckSkew(tr, bound, 1e-6); err != nil {
				t.Fatalf("bound %g trial %d: %v", bound, trial, err)
			}
		}
	}
}

// Relaxing the skew bound should never cost wire on average: BST is a
// monotone relaxation of ZST.
func TestBSTWireMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var wlZST, wlBST float64
	for trial := 0; trial < 25; trial++ {
		net := randomNet(rng, 20, 100)
		topo := GenTopo(net, GreedyDist, 0)
		z, err := Build(net, topo, ZST())
		if err != nil {
			t.Fatal(err)
		}
		b, err := Build(net, topo, BST(40))
		if err != nil {
			t.Fatal(err)
		}
		wlZST += z.Wirelength()
		wlBST += b.Wirelength()
	}
	if wlBST > wlZST {
		t.Errorf("BST total WL %g exceeds ZST %g", wlBST, wlZST)
	}
}

func TestZSTElmore(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tc := tech.Default28nm()
	for trial := 0; trial < 15; trial++ {
		net := randomNet(rng, 3+rng.Intn(25), 75)
		topo := GenTopo(net, GreedyDist, 0)
		tr, err := Build(net, topo, Options{Model: Elmore, SkewBound: 0, Tech: tc})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if skew := elmoreSkew(tr, tc); skew > 1e-4 {
			t.Fatalf("trial %d: elmore ZST skew = %g ps", trial, skew)
		}
	}
}

func TestBSTElmoreBound(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tc := tech.Default28nm()
	for _, bound := range []float64{5, 10, 80} {
		opts := Options{Model: Elmore, SkewBound: bound, Tech: tc}
		for trial := 0; trial < 10; trial++ {
			net := randomNet(rng, 10+rng.Intn(30), 75)
			topo := GenTopo(net, GreedyDist, opts.LengthBudget(net))
			tr, err := Build(net, topo, opts)
			if err != nil {
				t.Fatalf("bound %g trial %d: %v", bound, trial, err)
			}
			if skew := elmoreSkew(tr, tc); skew > bound+1e-4 {
				t.Fatalf("bound %g trial %d: elmore skew = %g", bound, trial, skew)
			}
		}
	}
}

// Initial sink delays (hierarchical CTS balancing cluster roots) must be
// absorbed: total delay = path length + initial delay is equalized by ZST.
func TestZSTWithSinkDelays(t *testing.T) {
	net := &tree.Net{Source: geom.Pt(0, 0), Sinks: []tree.PinSink{
		{Name: "a", Loc: geom.Pt(-20, 0), Cap: 1},
		{Name: "b", Loc: geom.Pt(20, 0), Cap: 1},
	}}
	d0 := []float64{0, 14}
	opts := ZST()
	opts.SinkDelay = func(i int, s tree.PinSink) float64 { return d0[i] }
	topo := GenTopo(net, GreedyDist, 0)
	tr, err := Build(net, topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	var tot [2]float64
	for _, s := range tr.Sinks() {
		tot[s.SinkIdx] = tree.PathLength(s) + d0[s.SinkIdx]
	}
	if math.Abs(tot[0]-tot[1]) > 1e-6 {
		t.Fatalf("total delays not balanced: %g vs %g", tot[0], tot[1])
	}
}

func TestSnakingKeepsValidEdges(t *testing.T) {
	// Force snaking: two sinks very close together with wildly different
	// initial delays.
	net := &tree.Net{Source: geom.Pt(0, 0), Sinks: []tree.PinSink{
		{Name: "a", Loc: geom.Pt(10, 0), Cap: 1},
		{Name: "b", Loc: geom.Pt(12, 0), Cap: 1},
	}}
	d0 := []float64{30, 0}
	opts := ZST()
	opts.SinkDelay = func(i int, s tree.PinSink) float64 { return d0[i] }
	tr, err := Build(net, GenTopo(net, GreedyDist, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := invariants.CheckTree(tr); err != nil {
		t.Fatal(err)
	}
	var tot [2]float64
	for _, s := range tr.Sinks() {
		tot[s.SinkIdx] = tree.PathLength(s) + d0[s.SinkIdx]
	}
	if math.Abs(tot[0]-tot[1]) > 1e-6 {
		t.Fatalf("snaked delays not balanced: %g vs %g", tot[0], tot[1])
	}
}

func TestSingleSink(t *testing.T) {
	net := &tree.Net{Source: geom.Pt(0, 0), Sinks: []tree.PinSink{{Name: "a", Loc: geom.Pt(7, 3), Cap: 1}}}
	tr, err := Build(net, GenTopo(net, BiPartition, 0), ZST())
	if err != nil {
		t.Fatal(err)
	}
	if wl := tr.Wirelength(); wl != 10 {
		t.Errorf("single-sink WL = %g, want 10", wl)
	}
}

func TestGenTopoValid(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, method := range AllTopoMethods {
		for trial := 0; trial < 10; trial++ {
			net := randomNet(rng, 1+rng.Intn(40), 150)
			topo := GenTopo(net, method, 10)
			if err := topo.Validate(len(net.Sinks)); err != nil {
				t.Fatalf("%v trial %d (n=%d): %v", method, trial, len(net.Sinks), err)
			}
		}
	}
}

func TestGenTopoCoincidentSinks(t *testing.T) {
	// Degenerate geometry: all sinks in a tiny cluster plus clones on a line.
	net := &tree.Net{Source: geom.Pt(0, 0)}
	for i := 0; i < 9; i++ {
		net.Sinks = append(net.Sinks, tree.PinSink{Loc: geom.Pt(float64(i%3)*0.001, float64(i/3)*0.001), Cap: 1})
	}
	for _, method := range AllTopoMethods {
		topo := GenTopo(net, method, 0)
		if err := topo.Validate(len(net.Sinks)); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if _, err := Build(net, topo, ZST()); err != nil {
			t.Fatalf("%v: %v", method, err)
		}
	}
}

func TestLinearSplitBalance(t *testing.T) {
	a := &mnode{ms: geom.OctFromPoint(geom.Pt(0, 0)), lo: 0, hi: 0}
	b := &mnode{ms: geom.OctFromPoint(geom.Pt(10, 0)), lo: 0, hi: 0}
	ea, eb := linearSplit(a, b, 10, 0)
	if ea != 5 || eb != 5 {
		t.Errorf("balanced split = (%g,%g), want (5,5)", ea, eb)
	}
	// b already 4 slower: a gets more wire.
	b.lo, b.hi = 4, 4
	ea, eb = linearSplit(a, b, 10, 0)
	if ea != 7 || eb != 3 {
		t.Errorf("offset split = (%g,%g), want (7,3)", ea, eb)
	}
	// b 20 slower than the distance allows: snake a.
	b.lo, b.hi = 20, 20
	ea, eb = linearSplit(a, b, 10, 0)
	if ea != 20 || eb != 0 {
		t.Errorf("snaked split = (%g,%g), want (20,0)", ea, eb)
	}
	// With a generous bound no snaking is needed.
	ea, eb = linearSplit(a, b, 10, 80)
	if ea+eb != 10 {
		t.Errorf("relaxed split total = %g, want 10", ea+eb)
	}
}

// linearSplit's split must hold the merged subtrees to the linear skew
// bound on arbitrary inputs: neither side's slowest path may exceed the
// other's fastest by more than B.
func TestSplitsAgreeOnLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 500; i++ {
		a := &mnode{lo: rng.Float64() * 50}
		a.hi = a.lo + rng.Float64()*10
		b := &mnode{lo: rng.Float64() * 50}
		b.hi = b.lo + rng.Float64()*10
		B := 10 + rng.Float64()*20
		d := rng.Float64() * 80
		la, lb := linearSplit(a, b, d, B)
		inc := a.hi + la - b.lo - lb
		dec := b.hi + lb - a.lo - la
		if inc > B+1e-6 || dec > B+1e-6 {
			t.Fatalf("constraint violated: inc=%g dec=%g B=%g", inc, dec, B)
		}
	}
}

// Regression: a top-level merge with a huge delay offset, a large region
// distance and a tight Elmore bound must balance, not bail out. (The golden
// section + extreme-split code this replaced chose the wrong split here.)
func TestElmoreMergeLargeOffsetTightBound(t *testing.T) {
	tc := tech.Default28nm()
	opts := Options{Model: Elmore, SkewBound: 6.6, Tech: tc}
	a := &mnode{ms: geom.OctFromPoint(geom.Pt(0, 0)), lo: 10, hi: 14, cap: 40}
	b := &mnode{ms: geom.OctFromPoint(geom.Pt(500, 0)), lo: 180, hi: 184, cap: 40}
	m, err := merge(a, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if span := m.hi - m.lo; span > opts.SkewBound+1e-6 {
		t.Fatalf("merged span %g exceeds bound", span)
	}
	var total float64
	if m.detour {
		total = m.eaFix + m.ebFix
	} else {
		total = m.d
	}
	if total < 500 {
		t.Fatalf("merge wire %g shorter than region distance", total)
	}
}

// Region-based merging must save wire over segment merging while honoring
// the skew bound — the defining property of BST-DME merging regions.
func TestRegionsSaveWire(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	tc := tech.Default28nm()
	var wlSeg, wlReg float64
	for trial := 0; trial < 25; trial++ {
		net := randomNet(rng, 10+rng.Intn(25), 75)
		topo := GenTopo(net, GreedyDist, 10)
		seg := Options{Model: Elmore, SkewBound: 10, Tech: tc, RegionGreed: SegmentRegions}
		reg := Options{Model: Elmore, SkewBound: 10, Tech: tc, RegionGreed: 1}
		ts, err := Build(net, topo, seg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Build(net, topo, reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := invariants.CheckTree(tr); err != nil {
			t.Fatal(err)
		}
		if err := invariants.CheckLoad(tr, tc.CPerUm); err != nil {
			t.Fatal(err)
		}
		if skew := elmoreSkew(tr, tc); skew > 10+1e-4 {
			t.Fatalf("trial %d: region BST skew %g over bound", trial, skew)
		}
		wlSeg += ts.Wirelength()
		wlReg += tr.Wirelength()
	}
	if wlReg >= wlSeg*0.97 {
		t.Errorf("regions did not save wire: %g vs segments %g", wlReg, wlSeg)
	}
}

// UST realizes scheduled skews: each sink's path length lands at its
// offset (relative to the earliest) within the slack.
func TestUSTScheduledSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 15; trial++ {
		net := randomNet(rng, 4+rng.Intn(16), 100)
		offsets := make([]float64, len(net.Sinks))
		for i := range offsets {
			offsets[i] = rng.Float64() * 25
		}
		slack := 2.0
		opts := UST(offsets, slack)
		topo := GenTopo(net, GreedyDist, slack)
		tr, err := Build(net, topo, opts)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// delay_i − offset_i must be equal across sinks within the slack.
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range tr.Sinks() {
			v := tree.PathLength(s) - offsets[s.SinkIdx]
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if hi-lo > slack+1e-6 {
			t.Fatalf("trial %d: scheduled-skew residual %g exceeds slack", trial, hi-lo)
		}
	}
}

// merge's output check grants m.hi-m.lo up to B+1e-6 of rounding slack, so
// its input guard must accept children carrying that much: deep trees
// (million-sink runs) hand a span a few 1e-9 over an exact bound back into
// the next merge, and rejecting them fails a legal construction.
func TestMergeAcceptsProducerRoundingSlack(t *testing.T) {
	opts := Options{Model: Linear, SkewBound: 20, RegionGreed: -1}
	a := &mnode{ms: geom.OctFromPoint(geom.Pt(0, 0)), sinkIdx: -1, lo: 0, hi: 20 + 5e-7}
	b := &mnode{ms: geom.OctFromPoint(geom.Pt(1, 0)), sinkIdx: 0, lo: 10.5, hi: 10.5}
	if _, err := merge(a, b, opts); err != nil {
		t.Fatalf("merge rejected a child within producer rounding slack: %v", err)
	}
	a.hi = 20 + 1e-3 // a genuinely over-bound child must still be rejected
	if _, err := merge(a, b, opts); err == nil {
		t.Fatal("merge accepted a genuinely over-bound child")
	}
}
