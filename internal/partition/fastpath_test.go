package partition

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"

	"sllt/internal/geom"
)

func fastpathPts(n int, rng *rand.Rand, integer bool) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		if integer {
			pts[i] = geom.Pt(float64(rng.Intn(64)), float64(rng.Intn(64)))
		} else {
			pts[i] = geom.Pt(rng.Float64()*400, rng.Float64()*400)
		}
	}
	return pts
}

// TestAssignPointsGridMatchesExhaustive: above the grid gates (≥24 centers,
// ≥2048 points) the indexed pass must be byte-identical to the ascending
// scan — including exact ties, which both resolve to the lowest center.
func TestAssignPointsGridMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, integer := range []bool{false, true} {
		n := minParallelPoints + 500
		pts := fastpathPts(n, rng, integer)
		centers := fastpathPts(64, rng, integer)

		got := make([]int, n)
		ref := make([]int, n)
		gc := assignPointsK(pts, centers, got, 1, nil)
		rc := assignRange(pts, centers, ref, 0, n, nil)
		if gc != rc {
			t.Fatalf("integer=%v: changed flags differ: %v vs %v", integer, gc, rc)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("integer=%v: assign[%d]=%d, reference %d", integer, i, got[i], ref[i])
			}
		}
		// Second identical pass must report no change through both paths.
		if assignPointsK(pts, centers, got, 1, nil) || assignRange(pts, centers, ref, 0, n, nil) {
			t.Fatalf("integer=%v: stable assignment reported a change", integer)
		}
	}
}

// TestKMeansPWorkersInvariantGrid re-pins the workers-invariance contract on
// inputs large enough to cross both the parallel and the grid-index gates.
func TestKMeansPWorkersInvariantGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pts := fastpathPts(minParallelPoints+700, rng, false)
	k := 80 // > assignGridMinCenters

	c1, a1 := KMeansPK(pts, k, 12, 7, 1, nil)
	c8, a8 := KMeansPK(pts, k, 12, 7, 8, nil)
	if len(c1) != len(c8) {
		t.Fatalf("center counts differ: %d vs %d", len(c1), len(c8))
	}
	for i := range c1 {
		if c1[i] != c8[i] {
			t.Fatalf("center %d differs: %v vs %v", i, c1[i], c8[i])
		}
	}
	for i := range a1 {
		if a1[i] != a8[i] {
			t.Fatalf("assign[%d] differs: %d vs %d", i, a1[i], a8[i])
		}
	}
}

// TestNearestOtherNetGridMatchesScan compares the annealer's grid fast path
// against the retained all-members scan on the same state. Random float
// coordinates make exact cross-cluster distance ties measure-zero, so the
// two tie rules coincide and the answers must match exactly.
func TestNearestOtherNetGridMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	n := saGridThreshold + 300
	pts := fastpathPts(n, rng, false)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1
	}
	k := 40
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.Intn(k)
	}
	st := newSAState(pts, caps, k, assign, DefaultSAOptions(1))
	if st.grid == nil {
		t.Fatalf("grid not built at n=%d", n)
	}
	g := st.grid
	for trial := 0; trial < 400; trial++ {
		i := rng.Intn(n)
		from := st.assign[i]
		st.grid = g
		fast := st.nearestOtherNet(i, from)
		st.grid = nil
		slow := st.nearestOtherNet(i, from)
		if fast != slow {
			t.Fatalf("trial=%d i=%d: grid chose net %d, scan %d", trial, i, fast, slow)
		}
	}
}

// refineSALargeDigest is the SHA-256 of TestRefineSALargeDeterministic's
// refined assignment (fmt.Sprint of the slice). A change that moves it on
// purpose updates it and says why in CHANGES.md.
const refineSALargeDigest = "0d01213671ff343d902059ca6091128e2d4f238ae5357ac6f0c8d0aa41291503"

// TestRefineSALargeDeterministic: with the grid, the hull memo and the
// incremental cost terms active, same-seed refinement must be reproducible,
// well-formed and equal to the pinned result.
func TestRefineSALargeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	n := saGridThreshold + 200
	pts := fastpathPts(n, rng, false)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = 1.5
	}
	k := 48
	assign := make([]int, n)
	for i := range assign {
		assign[i] = i % k
	}
	opt := DefaultSAOptions(5)
	opt.Iters = 150
	a := RefineSA(pts, caps, k, assign, opt)
	b := RefineSA(pts, caps, k, assign, opt)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assign[%d] differs across identical runs: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= k {
			t.Fatalf("assign[%d]=%d out of range", i, a[i])
		}
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(a)))); got != refineSALargeDigest {
		t.Errorf("refined assignment digest %s, want %s", got, refineSALargeDigest)
	}
}
