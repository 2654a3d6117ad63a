package partition

import (
	"math"
	"math/rand"
	"testing"

	"sllt/internal/geom"
)

// fourBlobs returns points in four well-separated clusters.
func fourBlobs(rng *rand.Rand, per int) []geom.Point {
	centers := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(0, 100), geom.Pt(100, 100)}
	var pts []geom.Point
	for _, c := range centers {
		for i := 0; i < per; i++ {
			pts = append(pts, geom.Pt(c.X+rng.Float64()*10, c.Y+rng.Float64()*10))
		}
	}
	return pts
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := fourBlobs(rng, 25)
	_, assign := KMeansPK(pts, 4, 50, 1, 1, nil)
	// All points of one blob must share a cluster.
	for b := 0; b < 4; b++ {
		want := assign[b*25]
		for i := b * 25; i < (b+1)*25; i++ {
			if assign[i] != want {
				t.Fatalf("blob %d split across clusters", b)
			}
		}
	}
	// And the four blobs use four distinct clusters.
	seen := map[int]bool{}
	for b := 0; b < 4; b++ {
		seen[assign[b*25]] = true
	}
	if len(seen) != 4 {
		t.Fatalf("blobs merged: %d clusters used", len(seen))
	}
}

func TestKMeansDegenerate(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2)}
	centers, assign := KMeansPK(pts, 5, 10, 1, 1, nil)
	if len(centers) != 2 {
		t.Errorf("k clamped to %d, want 2", len(centers))
	}
	_, assign = KMeansPK(pts, 1, 10, 1, 1, nil)
	if assign[0] != 0 || assign[1] != 0 {
		t.Error("k=1 should put everything in cluster 0")
	}
}

func TestSilhouette(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	pts := fourBlobs(rng, 20)
	_, good := KMeansPK(pts, 4, 50, 1, 1, nil)
	sGood := SilhouetteP(pts, good, 4, 1)
	if sGood < 0.7 {
		t.Errorf("silhouette of clean blobs = %.3f, want > 0.7", sGood)
	}
	// A deliberately bad clustering (round-robin) must score far lower.
	bad := make([]int, len(pts))
	for i := range bad {
		bad[i] = i % 4
	}
	if sBad := SilhouetteP(pts, bad, 4, 1); sBad >= sGood {
		t.Errorf("round-robin silhouette %.3f >= clean %.3f", sBad, sGood)
	}
}

func TestBalancedAssignRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	pts := fourBlobs(rng, 30) // 120 points
	centers, _ := KMeansPK(pts, 6, 30, 1, 1, nil)
	for _, cap := range []int{20, 25, 40} {
		assign, _ := BalancedAssignK(pts, centers, cap, nil)
		load := map[int]int{}
		for _, a := range assign {
			load[a]++
		}
		for j, l := range load {
			if l > cap {
				t.Errorf("cap %d: cluster %d has %d members", cap, j, l)
			}
		}
	}
}

// The MCF assignment must beat (or match) greedy repair on total distance —
// it is exact.
func TestMCFBeatsGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 10; trial++ {
		n := 40 + rng.Intn(40)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		k := 4 + rng.Intn(3)
		centers, _ := KMeansPK(pts, k, 20, 2, 1, nil)
		cap := n/k + 1
		cost := func(assign []int) float64 {
			var c float64
			for i, a := range assign {
				c += pts[i].Dist(centers[a])
			}
			return c
		}
		mcf := assignMCF(pts, centers, cap, nil)
		greedy := assignGreedyRepair(pts, centers, cap, nil)
		if cost(mcf) > cost(greedy)+1e-6 {
			t.Fatalf("trial %d: MCF cost %.2f worse than greedy %.2f", trial, cost(mcf), cost(greedy))
		}
		load := map[int]int{}
		for _, a := range mcf {
			load[a]++
		}
		for j, l := range load {
			if l > cap {
				t.Fatalf("trial %d: MCF overloaded cluster %d (%d > %d)", trial, j, l, cap)
			}
		}
	}
}

// Forced-contention instance where pure nearest-assignment must violate
// capacity: MCF finds the optimal capacitated split.
func TestMCFForcedContention(t *testing.T) {
	// 4 points near center A, capacity 2: two must go to B.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)}
	centers := []geom.Point{geom.Pt(0, 0), geom.Pt(10, 0)}
	assign := assignMCF(pts, centers, 2, nil)
	loadA := 0
	for _, a := range assign {
		if a == 0 {
			loadA++
		}
	}
	if loadA != 2 {
		t.Fatalf("loadA = %d, want 2 (capacity binding)", loadA)
	}
	// Optimal: the two points nearest B's direction (x=1) move.
	if assign[0] != 0 || assign[2] != 0 {
		t.Errorf("wrong points moved: %v", assign)
	}
}

func TestRefineSAImprovesCost(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	pts := fourBlobs(rng, 25)
	caps := make([]float64, len(pts))
	for i := range caps {
		caps[i] = 1.2
	}
	// Start from a deliberately scrambled assignment.
	assign := make([]int, len(pts))
	for i := range assign {
		assign[i] = rng.Intn(4)
	}
	opt := DefaultSAOptions(1)
	opt.Iters = 1500
	before := newSAState(pts, caps, 4, assign, opt).Cost()
	refined := RefineSA(pts, caps, 4, assign, opt)
	after := newSAState(pts, caps, 4, refined, opt).Cost()
	if after >= before {
		t.Errorf("SA did not improve cost: %.2f -> %.2f", before, after)
	}
}

func TestRefineSAKeepsAllPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	pts := fourBlobs(rng, 20)
	caps := make([]float64, len(pts))
	for i := range caps {
		caps[i] = 1
	}
	centers, assign := KMeansPK(pts, 4, 30, 1, 1, nil)
	_ = centers
	opt := DefaultSAOptions(2)
	opt.Iters = 300
	refined := RefineSA(pts, caps, 4, assign, opt)
	if len(refined) != len(pts) {
		t.Fatal("assignment length changed")
	}
	for i, a := range refined {
		if a < 0 || a >= 4 {
			t.Fatalf("point %d assigned to invalid cluster %d", i, a)
		}
	}
}

func TestVariance(t *testing.T) {
	if v := variance([]float64{2, 2, 2}); v != 0 {
		t.Errorf("constant variance = %g", v)
	}
	if v := variance([]float64{0, 2}); math.Abs(v-1) > 1e-12 {
		t.Errorf("variance = %g, want 1", v)
	}
	if v := variance(nil); v != 0 {
		t.Errorf("empty variance = %g", v)
	}
}
