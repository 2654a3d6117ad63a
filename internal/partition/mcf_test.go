package partition

import (
	"math"
	"math/rand"
	"testing"

	"sllt/internal/designgen"
	"sllt/internal/geom"
	"sllt/internal/obs"
)

// sweepInstance draws instance seed of the termination sweep: n ≤ 121
// points and k ≤ 14 centers in a square of side 1 µm, 30 µm, 300 µm, 1 mm
// or 3 mm, and a capacity from ⌈n/k⌉ to ⌈n/k⌉ + 2. By seed mod 3 the
// points and centers are uniform floats, both on a w×w grid (w from 3 to
// 8) over the square, or grid points around float centers; the grids make
// exact Manhattan ties, whose zero-cost residual cycles the float solver's
// rounding error could turn negative.
func sweepInstance(seed int64) (pts, centers []geom.Point, cap int) {
	rng := rand.New(rand.NewSource(seed))
	n, k := 2+rng.Intn(120), 1+rng.Intn(14)
	side := [...]float64{1, 30, 300, 1000, 3000}[rng.Intn(5)]
	w := 3 + rng.Intn(6)
	grid := func(m int) []geom.Point {
		out := make([]geom.Point, m)
		for i := range out {
			out[i] = geom.Pt(float64(rng.Intn(w))*side/float64(w), float64(rng.Intn(w))*side/float64(w))
		}
		return out
	}
	uniform := func(m int) []geom.Point {
		out := make([]geom.Point, m)
		for i := range out {
			out[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
		}
		return out
	}
	switch seed % 3 {
	case 0:
		pts, centers = uniform(n), uniform(k)
	case 1:
		pts, centers = grid(n), grid(k)
	case 2:
		pts, centers = grid(n), uniform(k)
	}
	return pts, centers, (n+k-1)/k + rng.Intn(3)
}

// floatStuck are sweep seeds, both at 3 mm scale, on which the float
// solver never finishes: its Dijkstra runs took over 20 million heap
// pushes on them, where every other sweep instance finishes within 26,000.
// The sweep gives it 250,000 heap pops.
var floatStuck = []int64{487, 799}

// TestMCFTerminationSweep runs the integer solver on 3,000 sweep
// instances: each must finish within n augmentations and match the pair
// oracle. On the floatStuck seeds the float solver must still give up,
// so the sweep keeps covering inputs the float margin could not handle.
func TestMCFTerminationSweep(t *testing.T) {
	for seed := range int64(3000) {
		pts, centers, cap := sweepInstance(seed)
		var kern obs.KernelCounters
		got := assignMCF(pts, centers, cap, &kern)
		if aug := kern.MCFAugments.Load(); aug > int64(len(pts)) {
			t.Fatalf("seed %d: %d augmentations for %d points", seed, aug, len(pts))
		}
		want := oracleAssignMCF(pts, centers, cap)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d (n=%d k=%d cap=%d): assign[%d]=%d, oracle %d",
					seed, len(pts), len(centers), cap, i, got[i], want[i])
			}
		}
	}
	for _, seed := range floatStuck {
		pts, centers, cap := sweepInstance(seed)
		if _, ok := oracleFloatMCF(pts, centers, cap, 250_000); ok {
			t.Errorf("seed %d: the float solver finished", seed)
		}
	}
}

// manhattanTotal is the assignment's total Manhattan distance in µm.
func manhattanTotal(pts, centers []geom.Point, assign []int) float64 {
	var sum float64
	for i, a := range assign {
		sum += pts[i].Dist(centers[a])
	}
	return sum
}

// checkRoundingBound fails unless the integer assignment's total Manhattan
// distance is within n·1 nm of the float solver's optimum: each pair cost
// rounds its distance to the nearest nm, so the two optima can differ by
// at most half a nm per point each way.
func checkRoundingBound(t *testing.T, name string, pts, centers []geom.Point, cap int) {
	t.Helper()
	want, ok := oracleFloatMCF(pts, centers, cap, math.MaxInt)
	if !ok {
		t.Fatalf("%s: the float solver did not finish", name)
	}
	got := assignMCF(pts, centers, cap, nil)
	g, w := manhattanTotal(pts, centers, got), manhattanTotal(pts, centers, want)
	if bound := float64(len(pts)) * 1e-3; math.Abs(g-w) > bound {
		t.Errorf("%s: total %.6f µm, float optimum %.6f µm, bound %.3f µm", name, g, w, bound)
	}
}

// TestMCFWithinRoundingOfFloat checks the rounding bound on the oracle
// instances that route every point (a saturated instance's unrouted points
// fall to center 0, outside either optimum) and on s38584's level 0 under
// the paper flow: its sinks, 40 centers from the better-scored of the two
// k-means restarts, capacity 32.
func TestMCFWithinRoundingOfFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := range 300 {
		kind, pts, centers, cap := mcfInstance(trial, rng)
		if kind != "saturated" {
			checkRoundingBound(t, kind, pts, centers, cap)
		}
	}

	spec, err := designgen.FindSpec("s38584")
	if err != nil {
		t.Fatal(err)
	}
	sinks := designgen.Generate(spec, 1).Net().Sinks
	pts := make([]geom.Point, len(sinks))
	for i, s := range sinks {
		pts[i] = s.Loc
	}
	k := len(pts)/32 + 1
	var centers []geom.Point
	var best float64
	for r := range int64(2) {
		c, a := KMeansPK(pts, k, 24, 1+r*1009, 1, nil)
		if score := SilhouetteP(pts, a, k, 1); r == 0 || score > best {
			centers, best = c, score
		}
	}
	if len(pts) != 1248 || k != 40 {
		t.Fatalf("s38584 level 0: n=%d k=%d, want 1248 and 40", len(pts), k)
	}
	checkRoundingBound(t, "s38584 level 0", pts, centers, 32)
}

// TestMCFExtremeInputs matches the pair oracle where the cost bounds are
// widest and where they degenerate: coordinates up to 10 m, and every
// point and center on one spot (no squared-distance term, so the hash
// alone decides).
func TestMCFExtremeInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	wide := func(m int) []geom.Point {
		out := make([]geom.Point, m)
		for i := range out {
			out[i] = geom.Pt(rng.Float64()*1e7, rng.Float64()*1e7)
		}
		return out
	}
	spot := func(m int) []geom.Point {
		out := make([]geom.Point, m)
		for i := range out {
			out[i] = geom.Pt(3000, 3000)
		}
		return out
	}
	cases := []struct {
		name         string
		pts, centers []geom.Point
		cap          int
	}{
		{"10 m", wide(150), wide(12), 13},
		{"coincident", spot(90), spot(9), 11},
	}
	for _, c := range cases {
		got := assignMCF(c.pts, c.centers, c.cap, nil)
		want := oracleAssignMCF(c.pts, c.centers, c.cap)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: assign[%d]=%d, oracle %d", c.name, i, got[i], want[i])
			}
		}
	}
}
