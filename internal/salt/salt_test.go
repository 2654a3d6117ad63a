package salt

import (
	"math/rand"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/invariants"
	"sllt/internal/rsmt"
	"sllt/internal/tree"
)

func randomNet(rng *rand.Rand, n int, box float64) *tree.Net {
	net := &tree.Net{Name: "r", Source: geom.Pt(rng.Float64()*box, rng.Float64()*box)}
	used := map[geom.Point]bool{net.Source: true}
	for len(net.Sinks) < n {
		p := geom.Pt(float64(rng.Intn(int(box))), float64(rng.Intn(int(box))))
		if used[p] {
			continue
		}
		used[p] = true
		net.Sinks = append(net.Sinks, tree.PinSink{Name: "s", Loc: p, Cap: 1})
	}
	return net
}

// The shallowness guarantee is SALT's contract: PL(s) <= (1+eps)·MD(s).
func TestShallownessGuarantee(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, eps := range []float64{0, 0.1, 0.5, 2.0} {
		for trial := 0; trial < 20; trial++ {
			net := randomNet(rng, 3+rng.Intn(35), 150)
			tr := Build(net, eps)
			if err := invariants.CheckTree(tr); err != nil {
				t.Fatalf("eps=%g trial %d: %v", eps, trial, err)
			}
			if err := invariants.CheckLoad(tr, 0.12); err != nil {
				t.Fatalf("eps=%g trial %d: %v", eps, trial, err)
			}
			for _, s := range tr.Sinks() {
				md := net.Source.Dist(s.Loc)
				if pl := tree.PathLength(s); pl > (1+eps)*md+1e-6 {
					t.Fatalf("eps=%g trial %d: sink %v PL %g > (1+eps)·MD %g",
						eps, trial, s.Loc, pl, (1+eps)*md)
				}
			}
		}
	}
}

func TestEpsZeroGivesShortestPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		net := randomNet(rng, 3+rng.Intn(25), 120)
		tr := Build(net, 0)
		if a := tree.Measure(tr, net, 0).Alpha; a > 1+1e-9 {
			t.Fatalf("trial %d: eps=0 shallowness = %g", trial, a)
		}
	}
}

// Larger eps must never hurt wirelength systematically: eps=inf ~ RSMT.
func TestEpsTradeoff(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var wlTight, wlLoose float64
	for trial := 0; trial < 25; trial++ {
		net := randomNet(rng, 20, 150)
		wlTight += Build(net, 0).Wirelength()
		wlLoose += Build(net, 100).Wirelength()
	}
	if wlTight < wlLoose {
		t.Errorf("eps=0 WL %g unexpectedly lighter than eps=100 WL %g", wlTight, wlLoose)
	}
	// Loose eps should essentially match the RSMT seed.
	rng = rand.New(rand.NewSource(12))
	var wlSeed float64
	for trial := 0; trial < 25; trial++ {
		net := randomNet(rng, 20, 150)
		wlSeed += rsmt.Build(net).Wirelength()
	}
	if wlLoose > wlSeed*1.02 {
		t.Errorf("loose SALT WL %g much worse than RSMT %g", wlLoose, wlSeed)
	}
}

// Relax must preserve the sink set and keep the tree structurally sound even
// when fed snaked trees.
func TestRelaxOnSnakedTree(t *testing.T) {
	net := &tree.Net{Source: geom.Pt(0, 0), Sinks: []tree.PinSink{
		{Name: "a", Loc: geom.Pt(10, 0), Cap: 1},
		{Name: "b", Loc: geom.Pt(0, 10), Cap: 1},
	}}
	tr := tree.New(net.Source)
	a := net.SinkNode(0)
	b := net.SinkNode(1)
	tr.Root.AddChild(a)
	tr.Root.AddChild(b)
	a.EdgeLen = 30 // heavily snaked
	Relax(tr, 0, nil)
	if err := invariants.CheckTree(tr); err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Sinks() {
		if pl := tree.PathLength(s); pl != 10 {
			t.Errorf("sink %s PL = %g, want 10 (snaking removed)", s.Name, pl)
		}
	}
}

func TestRelaxPreservesSinks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		net := randomNet(rng, 4+rng.Intn(20), 100)
		tr := rsmt.Build(net)
		Relax(tr, 0.2, nil)
		if got := len(tr.Sinks()); got != len(net.Sinks) {
			t.Fatalf("trial %d: %d sinks after relax, want %d", trial, got, len(net.Sinks))
		}
		seen := map[int]bool{}
		for _, s := range tr.Sinks() {
			if seen[s.SinkIdx] {
				t.Fatalf("trial %d: duplicated sink %d", trial, s.SinkIdx)
			}
			seen[s.SinkIdx] = true
		}
	}
}

// Adversarial geometry: collinear pins, duplicated rows, pins coincident
// with the source's row — the degenerate nets EDA code always meets.
func TestBuildAdversarialGeometry(t *testing.T) {
	nets := []*tree.Net{
		{Source: geom.Pt(0, 0), Sinks: []tree.PinSink{ // all collinear
			{Name: "a", Loc: geom.Pt(10, 0), Cap: 1},
			{Name: "b", Loc: geom.Pt(20, 0), Cap: 1},
			{Name: "c", Loc: geom.Pt(30, 0), Cap: 1},
			{Name: "d", Loc: geom.Pt(40, 0), Cap: 1},
		}},
		{Source: geom.Pt(5, 5), Sinks: []tree.PinSink{ // tight cluster far away
			{Name: "a", Loc: geom.Pt(100, 100), Cap: 1},
			{Name: "b", Loc: geom.Pt(100.1, 100), Cap: 1},
			{Name: "c", Loc: geom.Pt(100, 100.1), Cap: 1},
		}},
		{Source: geom.Pt(50, 0), Sinks: []tree.PinSink{ // symmetric about source
			{Name: "a", Loc: geom.Pt(0, 0), Cap: 1},
			{Name: "b", Loc: geom.Pt(100, 0), Cap: 1},
		}},
	}
	for i, net := range nets {
		for _, eps := range []float64{0, 0.25} {
			tr := Build(net, eps)
			if err := invariants.CheckTree(tr); err != nil {
				t.Fatalf("net %d eps %g: %v", i, eps, err)
			}
			if got := len(tr.Sinks()); got != len(net.Sinks) {
				t.Fatalf("net %d eps %g: %d sinks", i, eps, got)
			}
			for _, s := range tr.Sinks() {
				md := net.Source.Dist(s.Loc)
				if pl := tree.PathLength(s); pl > (1+eps)*md+1e-6 {
					t.Fatalf("net %d eps %g: shallowness violated (%g > %g)", i, eps, pl, (1+eps)*md)
				}
			}
		}
	}
}
