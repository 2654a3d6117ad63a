package partition

import (
	"math/rand"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/geom/index"
	"sllt/internal/obs"
)

// Guard fixtures: a 16-point set split evenly between two centers (and a
// grid over those centers), three-point sets shaped for silhouetteOf's
// early exits (a singleton cluster, one cluster only, all points
// coincident), annealing states over the 16 points (three clusters, the
// middle one empty) and over no points, caller scratch, and sinks that keep
// the compiler from discarding the guarded calls. None of them is built by
// a guarded kernel, so only the guard inputs themselves execute kernel
// statements.
var (
	guardPts         = latticePoints(16, 4)
	guardCenters     = []geom.Point{geom.Pt(2, 2), geom.Pt(30, 14)}
	guardCenterGrid  = index.New(guardCenters)
	guardAssign      = []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1}
	guardAssignOut   = make([]int, len(guardPts))
	guardTrio        = []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(9, 0)}
	guardTrioSame    = []geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(0, 0)}
	guardTrioSplit   = []int{0, 0, 1}
	guardTrioOneClus = []int{0, 0, 0}
	guardSum         = make([]float64, 2)
	guardCnt         = make([]int, 2)
	guardSA          = newSAState(guardPts, make([]float64, len(guardPts)), 3,
		[]int{0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2}, DefaultSAOptions(1))
	guardSANone = newSAState(nil, nil, 2, nil, DefaultSAOptions(1))
	guardRng    = rand.New(rand.NewSource(1))
	// Min-cost-flow solvers over the 16 points: three centers with room
	// for 18, where later points push earlier ones to another center, and
	// guardCenters with room for 10, where the sink goes out of reach.
	guardMCFCenters = []geom.Point{geom.Pt(10, 4), geom.Pt(28, 8), geom.Pt(40, 16)}
	guardMCF        = newMCFSolver(guardPts, guardMCFCenters, 6)
	guardMCFFull    = newMCFSolver(guardPts, guardCenters, 5)
	guardKern       obs.KernelCounters

	guardSinkB bool
	guardSinkI int
	guardSinkP geom.Point
	guardSinkF float64
)

// latticePoints returns n points in rows of w, each row sheared right.
func latticePoints(n, w int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i%w)*9+float64(i), float64(i/w)*6)
	}
	return pts
}

// guardAssignRange runs assignRange from a cleared assignment, so every run
// takes the branch that records a changed point.
func guardAssignRange(g *index.Grid) {
	for i := range guardAssignOut {
		guardAssignOut[i] = -1
	}
	guardSinkB = assignRange(guardPts, guardCenters, guardAssignOut, 0, len(guardPts), g)
}

// allocFreeGuards pins every allocation-free kernel in this package at zero
// steady-state allocations, keyed by the kernel's display name. Together
// the inputs of an entry execute every statement of its kernel; the CI
// coverage step checks that they still do.
var allocFreeGuards = map[string][]func(){
	"assignRange": {
		func() { guardAssignRange(nil) },
		func() { guardAssignRange(guardCenterGrid) },
	},
	"farthestPoint": {
		func() { guardSinkP = farthestPoint(guardPts, guardAssign, guardCenters) },
	},
	"silhouetteOf": {
		func() { guardSinkF = silhouetteOf(guardPts, guardAssign, 2, 3, guardSum, guardCnt) },
		// Point 2 is alone in its cluster.
		func() { guardSinkF = silhouetteOf(guardTrio, guardTrioSplit, 2, 2, guardSum, guardCnt) },
		// No other cluster has members.
		func() { guardSinkF = silhouetteOf(guardTrio, guardTrioOneClus, 2, 0, guardSum, guardCnt) },
		// Both mean distances are zero.
		func() { guardSinkF = silhouetteOf(guardTrioSame, guardTrioSplit, 2, 0, guardSum, guardCnt) },
	},
	"saState.Cost": {
		func() { guardSinkF = guardSA.Cost() },
		func() { guardSinkF = guardSANone.Cost() },
	},
	// guardSA's draws land on net 0 or, past the empty net 1, on the last
	// net; over a guard's 101 runs both occur. guardSANone has no weight.
	"saState.pickCostlyNet": {
		func() { guardSinkI = guardSA.pickCostlyNet(guardRng) },
		func() { guardSinkI = guardSANone.pickCostlyNet(guardRng) },
	},
	// A move and its undo: the steady state of an annealing step.
	"saState.move": {
		func() { guardSA.move(3, 0, 2); guardSA.move(3, 2, 0) },
	},
	// Each input solves from an empty flow. Over guardMCF's augmentations
	// the Dijkstra skips stale heap entries, relaxes routed points' source
	// edges, centers with members and with slack, and a sink pop while
	// centers have load, and the augmenting paths move routed points on.
	"mcfSolver.solve": {
		func() { guardMCF.solve(&guardKern) },
		func() { guardMCFFull.solve(nil) },
	},
	"mcfSolver.shortestPaths": {
		func() { guardMCF.solve(nil) },
	},
	"mcfSolver.augment": {
		func() { guardMCF.solve(nil) },
	},
}

func TestAllocFreeGuards(t *testing.T) {
	for name, inputs := range allocFreeGuards {
		t.Run(name, func(t *testing.T) {
			for i, fn := range inputs {
				if n := testing.AllocsPerRun(100, fn); n != 0 {
					t.Errorf("input %d allocates %.1f times per op, want 0", i, n)
				}
			}
		})
	}
}

// allocScalingGuards pins the kernels whose setup may allocate but whose
// per-point loops must not: at(n) returns the kernel call over n points,
// and that call must allocate as often at n as at 16n. assignPointsK's n
// keeps it on its grid path (at least assignGridMinCenters centers and
// minParallelPoints points). AllocsPerRun pins GOMAXPROCS to 1, so the
// fan-outs run their tasks serially.
var allocScalingGuards = []struct {
	name string
	n    int
	at   func(n int) func()
}{
	{"assignPointsK", minParallelPoints, func(n int) func() {
		pts, centers := latticePoints(n, 64), latticePoints(32, 8)
		assign := make([]int, n)
		return func() { guardSinkB = assignPointsK(pts, centers, assign, 2, nil) }
	}},
	{"SilhouetteP", 64, func(n int) func() {
		pts, assign := latticePoints(n, 8), make([]int, n)
		for i := range assign {
			assign[i] = i % 3
		}
		return func() { guardSinkF = SilhouetteP(pts, assign, 3, 2) }
	}},
}

func TestAllocScalingGuards(t *testing.T) {
	for _, g := range allocScalingGuards {
		lo := testing.AllocsPerRun(5, g.at(g.n))
		hi := testing.AllocsPerRun(5, g.at(16*g.n))
		t.Logf("%s: %.0f vs %.0f", g.name, lo, hi)
		if lo != hi {
			t.Errorf("%s allocates %.1f times per call at n=%d but %.1f at n=%d, want equal",
				g.name, lo, g.n, hi, 16*g.n)
		}
	}
}
