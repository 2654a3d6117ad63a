package timing

import (
	"math"
	"math/rand"
	"testing"

	"sllt/internal/dme"
	"sllt/internal/geom"
	"sllt/internal/liberty"
	"sllt/internal/tech"
	"sllt/internal/tree"
)

// Long shared trunk, short divergence: CPPR must recover almost all of the
// naive pessimism.
func TestOCVCPPRRecoversSharedTrunk(t *testing.T) {
	lib := liberty.Default()
	tc := tech.Default28nm()
	tr := tree.New(geom.Pt(0, 0))
	trunkEnd := tree.NewNode(tree.Steiner, geom.Pt(400, 0))
	tr.Root.AddChild(trunkEnd)
	a := tree.NewNode(tree.Sink, geom.Pt(405, 5))
	a.PinCap = 1
	a.SinkIdx = 0
	b := tree.NewNode(tree.Sink, geom.Pt(405, -5))
	b.PinCap = 1
	b.SinkIdx = 1
	trunkEnd.AddChild(a)
	trunkEnd.AddChild(b)

	rep, err := AnalyzeOCV(tr, lib, tc, 20, DefaultOCV())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NaiveSkew <= 0 {
		t.Fatalf("naive skew = %g", rep.NaiveSkew)
	}
	// The 400 µm trunk dominates both paths; CPPR keeps only the 10 µm
	// divergence's derate spread.
	if rep.Skew > rep.NaiveSkew*0.2 {
		t.Errorf("CPPR skew %g did not recover trunk pessimism (naive %g)", rep.Skew, rep.NaiveSkew)
	}
	if math.Abs(rep.Pessimism-(rep.NaiveSkew-rep.Skew)) > 1e-9 {
		t.Error("pessimism accounting inconsistent")
	}
}

// TestOCVZeroDerateMatchesNominal checks that with every derate at 1 the
// naive OCV skew is the nominal skew: on a buffer-free DME tree against
// Analyze, and on a hand-built tree whose two buffers sit below one branch
// at different propagated input slews against a by-hand latency sum. A cell
// delay taken at the source slew instead misses the by-hand skew by
// WS·(slew_b − slew_a), about 2.6 ps here.
func TestOCVZeroDerateMatchesNominal(t *testing.T) {
	lib := liberty.Default()
	tc := tech.Default28nm()
	const srcSlew = 20.0
	rng := rand.New(rand.NewSource(81))
	net := &tree.Net{Source: geom.Pt(40, 40)}
	for i := 0; i < 20; i++ {
		net.Sinks = append(net.Sinks, tree.PinSink{
			Name: "s", Loc: geom.Pt(rng.Float64()*80, rng.Float64()*80), Cap: 1.2,
		})
	}
	topo := dme.GenTopo(net, dme.GreedyDist, 0)
	dmeTree, err := dme.Build(net, topo, dme.Options{Model: dme.Elmore, SkewBound: 5, Tech: tc})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := Analyze(dmeTree, lib, tc, srcSlew)
	if err != nil {
		t.Fatal(err)
	}

	// source(0,0) -20- branch(20,0) -10- CLKBUFX2 a -40- sink a
	//                               -300- CLKBUFX2 b -40- sink b
	cell := lib.Cell("CLKBUFX2")
	bufTree := tree.New(geom.Pt(0, 0))
	branch := tree.NewNode(tree.Steiner, geom.Pt(20, 0))
	bufTree.Root.AddChild(branch)
	for i, at := range []geom.Point{geom.Pt(30, 0), geom.Pt(20, 300)} {
		buf := tree.NewNode(tree.Buffer, at)
		buf.BufCell = cell.Name
		buf.PinCap = cell.InputCap
		branch.AddChild(buf)
		s := tree.NewNode(tree.Sink, geom.Pt(at.X, at.Y+40))
		s.PinCap = 2
		s.SinkIdx = i
		buf.AddChild(s)
	}
	trunk := tc.WireElmore(20, tc.WireCap(10+300)+2*cell.InputCap)
	branchSlew := math.Sqrt(srcSlew*srcSlew + Ln9*trunk*Ln9*trunk)
	leg := func(wire float64) float64 { // branch to sink through a buffer
		d := tc.WireElmore(wire, cell.InputCap)
		slew := math.Sqrt(branchSlew*branchSlew + Ln9*d*Ln9*d)
		return d + cell.Delay(slew, tc.WireCap(40)+2) + tc.WireElmore(40, 2)
	}
	handSkew := leg(300) - leg(10)

	unit := OCVParams{WireEarly: 1, WireLate: 1, CellEarly: 1, CellLate: 1}
	for _, c := range []struct {
		name string
		tr   *tree.Tree
		skew float64 // unit: ps
	}{
		{"buffer-free DME tree", dmeTree, nom.Skew},
		{"two buffers below a branch", bufTree, handSkew},
	} {
		rep, err := AnalyzeOCV(c.tr, lib, tc, srcSlew, unit)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.NaiveSkew-c.skew) > 1e-6 {
			t.Errorf("%s: unit-derate naive skew %g != nominal skew %g", c.name, rep.NaiveSkew, c.skew)
		}
		if rep.Skew > rep.NaiveSkew+1e-9 {
			t.Errorf("%s: CPPR skew exceeds naive skew", c.name)
		}
	}
}

// The paper's OCV motivation: variation-induced skew grows with the delay
// depth below divergence points, so the same zero-nominal-skew construction
// on a larger (higher-latency) net leaves more residual OCV skew even after
// CPPR. Verified by scaling one net geometry.
func TestOCVGrowsWithTreeDepth(t *testing.T) {
	lib := liberty.Default()
	tc := tech.Default28nm()
	rng := rand.New(rand.NewSource(82))
	buildZST := func(scale float64) *tree.Tree {
		r := rand.New(rand.NewSource(82))
		_ = rng
		net := &tree.Net{Source: geom.Pt(37.5*scale, 37.5*scale)}
		used := map[geom.Point]bool{}
		for len(net.Sinks) < 24 {
			p := geom.Pt(float64(r.Intn(75))*scale, float64(r.Intn(75))*scale)
			if used[p] {
				continue
			}
			used[p] = true
			net.Sinks = append(net.Sinks, tree.PinSink{Name: "s", Loc: p, Cap: 1.2})
		}
		topo := dme.GenTopo(net, dme.GreedyDist, 0)
		tr, err := dme.Build(net, topo, dme.Options{Model: dme.Elmore, SkewBound: 0.01, Tech: tc})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	small, err := AnalyzeOCV(buildZST(1), lib, tc, 20, DefaultOCV())
	if err != nil {
		t.Fatal(err)
	}
	large, err := AnalyzeOCV(buildZST(4), lib, tc, 20, DefaultOCV())
	if err != nil {
		t.Fatal(err)
	}
	// Nominal skew of both is ~0; the residual is pure variation.
	if large.Skew <= small.Skew {
		t.Errorf("OCV skew did not grow with tree depth: %g (4x) vs %g (1x)", large.Skew, small.Skew)
	}
}
