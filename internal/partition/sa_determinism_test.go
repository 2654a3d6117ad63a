package partition

import (
	"math/rand"
	"testing"

	"sllt/internal/geom"
)

// TestRefineSASameSeedTwice is the determinism regression for the
// clusterState members rewrite: running the annealer twice on identical
// inputs with the same seed must yield identical assignments. With the old
// map-backed membership, bbox rebuilds and hull/nearest-net scans walked
// the members in map iteration order, so two runs could diverge.
func TestRefineSASameSeedTwice(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := fourBlobs(rng, 40)
	// Perturb a few points toward the middle so refinement has real moves
	// to make, and add duplicate locations to exercise hull tie-breaking.
	for i := 0; i < 8; i++ {
		pts[i*17%len(pts)] = geom.Pt(45+float64(i), 52)
	}
	pts = append(pts, pts[3], pts[50], pts[50])
	caps := make([]float64, len(pts))
	for i := range caps {
		caps[i] = 1 + float64(i%5)*0.3
	}
	_, assign := KMeansPK(pts, 4, 30, 1, 1, nil)
	// Deliberately mis-assign some instances so refinement has genuine
	// cost-improving moves to find and accept.
	for i := 0; i < len(assign); i += 9 {
		assign[i] = (assign[i] + 1) % 4
	}

	opt := DefaultSAOptions(12345)
	opt.Iters = 300
	// Tight constraints force violation-driven moves so the hull-pick /
	// nearest-net / bbox-rebuild paths all run.
	opt.MaxFanout = 30
	opt.MaxCap = 40

	run := func() []int {
		in := append([]int(nil), assign...)
		return RefineSA(pts, caps, 4, in, opt)
	}
	a := run()
	b := run()
	if len(a) != len(b) {
		t.Fatalf("assignment lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed runs diverge at instance %d: %d vs %d", i, a[i], b[i])
		}
	}
	// The refinement must also actually have done something beyond echoing
	// the input (otherwise this test proves nothing about the SA loops).
	moved := 0
	for i := range a {
		if a[i] != assign[i] {
			moved++
		}
	}
	if moved == 0 {
		t.Log("warning: SA made no moves; determinism check is vacuous for the move path")
	}
}
