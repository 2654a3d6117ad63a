package index

import (
	"math"
	"math/rand"
	"testing"

	"sllt/internal/geom"
)

// bruteNearest is the oracle: ascending scan, strict-< keeps the lowest
// index on exact ties — the rule every accelerated caller relies on.
func bruteNearest(pts []geom.Point, q geom.Point, skip func(int) bool) (int, float64) {
	best, bd := -1, math.Inf(1)
	for i, p := range pts {
		if skip != nil && skip(i) {
			continue
		}
		if d := q.Dist(p); d < bd {
			best, bd = i, d
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, bd
}

func randPts(n int, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
	}
	return pts
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 7, 50, 300} {
		pts := randPts(n, rng)
		g := New(pts)
		for trial := 0; trial < 200; trial++ {
			q := geom.Pt(rng.Float64()*120-10, rng.Float64()*120-10)
			gi, gd := g.Nearest(q, nil)
			bi, bd := bruteNearest(pts, q, nil)
			if gi != bi || gd != bd {
				t.Fatalf("n=%d q=%v: grid (%d,%g) != brute (%d,%g)", n, q, gi, gd, bi, bd)
			}
		}
	}
}

func TestNearestWithSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pts := randPts(120, rng)
	g := New(pts)
	skip := func(i int) bool { return i%3 == 0 }
	for trial := 0; trial < 200; trial++ {
		q := pts[rng.Intn(len(pts))]
		gi, gd := g.Nearest(q, skip)
		bi, bd := bruteNearest(pts, q, skip)
		if gi != bi || gd != bd {
			t.Fatalf("q=%v: grid (%d,%g) != brute (%d,%g)", q, gi, gd, bi, bd)
		}
	}
	// Skipping everything must report no result.
	if i, _ := g.Nearest(pts[0], func(int) bool { return true }); i != -1 {
		t.Fatalf("all-skipped query returned %d, want -1", i)
	}
}

// TestNearestLowestIndexTies uses integer coordinates so that many points sit
// at exactly equal Manhattan distances; the grid must resolve every tie to
// the lowest index, like the ascending scans it replaces.
func TestNearestLowestIndexTies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := make([]geom.Point, 400)
	for i := range pts {
		pts[i] = geom.Pt(float64(rng.Intn(12)), float64(rng.Intn(12)))
	}
	g := New(pts)
	for trial := 0; trial < 300; trial++ {
		q := geom.Pt(float64(rng.Intn(14)-1), float64(rng.Intn(14)-1))
		gi, gd := g.Nearest(q, nil)
		bi, bd := bruteNearest(pts, q, nil)
		if gi != bi || gd != bd {
			t.Fatalf("q=%v: grid (%d,%g) != brute (%d,%g)", q, gi, gd, bi, bd)
		}
	}
}

func TestNearestDegenerateSets(t *testing.T) {
	cases := map[string][]geom.Point{
		"empty":      {},
		"single":     {geom.Pt(3, 4)},
		"coincident": {geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5)},
		"hline":      {geom.Pt(0, 2), geom.Pt(1, 2), geom.Pt(2, 2), geom.Pt(9, 2), geom.Pt(40, 2)},
		"vline":      {geom.Pt(-1, 0), geom.Pt(-1, 3), geom.Pt(-1, 80), geom.Pt(-1, 81)},
		"sliver":     {geom.Pt(0, 0), geom.Pt(10000, 1), geom.Pt(20000, 0.5), geom.Pt(5000, 0.2), geom.Pt(15000, 0.9)},
	}
	for name, pts := range cases {
		g := New(pts)
		queries := append([]geom.Point{geom.Pt(0, 0), geom.Pt(7, 7), geom.Pt(-3, 50)}, pts...)
		for _, q := range queries {
			gi, gd := g.Nearest(q, nil)
			bi, bd := bruteNearest(pts, q, nil)
			if gi != bi || gd != bd {
				t.Fatalf("%s q=%v: grid (%d,%g) != brute (%d,%g)", name, q, gi, gd, bi, bd)
			}
		}
	}
}

// TestNearestSteadyStateZeroAllocs pins the package contract that queries
// allocate nothing: partition runs one query per point per assignment pass.
func TestNearestSteadyStateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pts := randPts(2000, rng)
	g := New(pts)
	q := geom.Pt(50, 50)
	if avg := testing.AllocsPerRun(100, func() { g.Nearest(q, nil) }); avg != 0 {
		t.Fatalf("Nearest allocates %.1f/op, want 0", avg)
	}
}
