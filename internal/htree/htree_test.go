package htree

import (
	"math/rand"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/invariants"
	"sllt/internal/rsmt"
	"sllt/internal/tree"
)

// grid16 returns a regular 4x4 sink grid with the source at the center —
// the canonical H-tree input.
func grid16() *tree.Net {
	net := &tree.Net{Name: "g", Source: geom.Pt(15, 15)}
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			net.Sinks = append(net.Sinks, tree.PinSink{
				Name: "s", Loc: geom.Pt(float64(x)*10, float64(y)*10), Cap: 1,
			})
		}
	}
	return net
}

func TestHTreeGridZeroSkew(t *testing.T) {
	net := grid16()
	tr := Build(net)
	if err := invariants.CheckTree(tr); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Sinks()); got != 16 {
		t.Fatalf("sinks = %d", got)
	}
	if err := invariants.CheckSkew(tr, 0, 1e-9); err != nil {
		t.Fatal(err)
	}
	// On a symmetric grid the H-tree is perfectly balanced.
	var lo, hi float64 = 1e18, -1
	for _, s := range tr.Sinks() {
		pl := tree.PathLength(s)
		if pl < lo {
			lo = pl
		}
		if pl > hi {
			hi = pl
		}
	}
	if hi-lo > 1e-9 {
		t.Errorf("H-tree skew on symmetric grid = %g, want 0", hi-lo)
	}
}

func TestHTreeRandomValid(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		net := &tree.Net{Source: geom.Pt(50, 50)}
		n := 1 + rng.Intn(40)
		used := map[geom.Point]bool{}
		for len(net.Sinks) < n {
			p := geom.Pt(float64(rng.Intn(100)), float64(rng.Intn(100)))
			if used[p] {
				continue
			}
			used[p] = true
			net.Sinks = append(net.Sinks, tree.PinSink{Loc: p, Cap: 1})
		}
		tr := Build(net)
		if err := invariants.CheckTree(tr); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := len(tr.Sinks()); got != n {
			t.Fatalf("trial %d: %d sinks, want %d", trial, got, n)
		}
		gh := BuildGH(net, DefaultFactors(n))
		if err := invariants.CheckTree(gh); err != nil {
			t.Fatalf("trial %d GH: %v", trial, err)
		}
		if got := len(gh.Sinks()); got != n {
			t.Fatalf("trial %d GH: %d sinks, want %d", trial, got, n)
		}
	}
}

// GH-tree with branching factor 4 should be shallower than the binary
// H-tree on spread-out sinks (its defining property in the paper).
func TestGHTreeShallowerThanH(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var sumH, sumGH float64
	for trial := 0; trial < 20; trial++ {
		net := &tree.Net{Source: geom.Pt(50, 50)}
		used := map[geom.Point]bool{}
		for len(net.Sinks) < 32 {
			p := geom.Pt(float64(rng.Intn(100)), float64(rng.Intn(100)))
			if used[p] {
				continue
			}
			used[p] = true
			net.Sinks = append(net.Sinks, tree.PinSink{Loc: p, Cap: 1})
		}
		h := Build(net)
		gh := BuildGH(net, DefaultFactors(32))
		mH := tree.Measure(h, net, 0)
		mGH := tree.Measure(gh, net, 0)
		sumH += mH.MaxPL
		sumGH += mGH.MaxPL
	}
	if sumGH >= sumH {
		t.Errorf("GH-tree max path %g not shallower than H-tree %g", sumGH, sumH)
	}
}

// H-tree structure costs wire: it should be heavier than the RSMT on random
// inputs (Table 1's lightness ordering).
func TestHTreeHeavierThanRSMT(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var sumH, sumR float64
	for trial := 0; trial < 15; trial++ {
		net := &tree.Net{Source: geom.Pt(50, 50)}
		used := map[geom.Point]bool{}
		for len(net.Sinks) < 24 {
			p := geom.Pt(float64(rng.Intn(100)), float64(rng.Intn(100)))
			if used[p] {
				continue
			}
			used[p] = true
			net.Sinks = append(net.Sinks, tree.PinSink{Loc: p, Cap: 1})
		}
		sumH += Build(net).Wirelength()
		sumR += rsmt.Build(net).Wirelength()
	}
	if sumH <= sumR {
		t.Errorf("H-tree WL %g unexpectedly lighter than RSMT %g", sumH, sumR)
	}
}

func TestDefaultFactors(t *testing.T) {
	f := DefaultFactors(64)
	prod := 1
	for _, k := range f {
		prod *= k
	}
	if prod < 64 {
		t.Errorf("factors %v cover only %d leaves", f, prod)
	}
	if len(DefaultFactors(1)) != 0 {
		t.Error("single sink should need no branching")
	}
}
