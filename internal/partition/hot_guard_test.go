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
// middle one empty), over two of them (one cluster) and over no points,
// caller scratch, and sinks that keep the compiler from discarding the
// guarded calls. Only refreshTerms runs while they are built, on every
// cluster of each annealing state, so the coverage step cannot tell its
// fixture statements from its inputs'; those inputs are chosen to reach
// every statement on their own. Otherwise only the guard inputs execute
// kernel statements.
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
		[]int{0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2}, guardSAOptions())
	guardSANone = newSAState(nil, nil, 2, nil, DefaultSAOptions(1))
	guardSAPair = newSAState(guardPts[:2], make([]float64, 2), 2, []int{0, 0}, DefaultSAOptions(1))
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

// guardSAOptions returns the flow's annealing options with bounds that
// guardSA's clusters (eight members, 5.76 fF of wire over a 48 µm WL
// estimate) break, so each of the three violation terms is charged.
func guardSAOptions() SAOptions {
	opt := DefaultSAOptions(1)
	opt.MaxCap, opt.MaxWL, opt.MaxFanout = 2, 10, 4
	return opt
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
	// guardSANone has no weight.
	"saState.pickCostlyNet": {
		func() { guardSinkI = guardSA.pickCostlyNet(guardRng) },
		func() { guardSinkI = guardSANone.pickCostlyNet(guardRng) },
	},
	// The first net's first weight unit and the last net's last: the
	// descent takes no step, and then one.
	"saState.netAt": {
		func() { guardSinkI = guardSA.netAt(0) },
		func() { guardSinkI = guardSA.netAt(guardSA.sumW - 1) },
	},
	// A cluster that breaks all three bounds, and an empty one.
	"saState.refreshTerms": {
		func() { guardSA.refreshTerms(0) },
		func() { guardSA.refreshTerms(1) },
	},
	// Eight members run the chain; two are returned as given.
	"saState.rebuildHull": {
		func() { guardSA.rebuildHull(guardSA.clusters[0]) },
		func() { guardSAPair.rebuildHull(guardSAPair.clusters[0]) },
	},
	// A move and its undo: the steady state of an annealing step.
	"saState.move": {
		func() { guardSA.move(3, 0, 2); guardSA.move(3, 2, 0) },
	},
	// Each input solves from an empty flow and so runs every per-path
	// kernel. Over guardMCF's augmentations the Dijkstra skips routed
	// points at the cursors, relaxes member moves and the sink from centers
	// with and without slack and leaves centers unsettled behind the sink;
	// the paths move routed points on, and the row refreshes meet members
	// that beat the first.
	"mcfSolver.dijkstra": {
		func() { guardMCF.solve(&guardKern) },
		func() { guardMCFFull.solve(nil) },
	},
	"mcfSolver.augment": {
		func() { guardMCF.solve(nil) },
	},
	"mcfSolver.refresh": {
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

// greedyRingSteps returns the greedy repair's grid ring steps per query
// over four flow-shaped levels of n points: scattered over a 1 mm square,
// k = n/32 + 1 k-means centers and capacity 32, so that at most 32 slots
// are free in total.
func greedyRingSteps(n int) float64 {
	var kern obs.KernelCounters
	for seed := int64(1); seed <= 4; seed++ {
		pts := scatter(n, seed)
		centers, _ := KMeansPK(pts, n/32+1, 8, 1, 1, nil)
		assignGreedyRepair(pts, centers, 32, &kern)
	}
	s := kern.Snapshot()
	return float64(s.GridRingSteps) / float64(s.GridQueries)
}

// TestGreedyRingStepScaling pins the greedy repair's cost per query in
// ring steps, which count work the same on every host: at 16n, the steps
// per query must stay within 1.2× of those at n. A walk over all centers
// that skips the full ones crosses more full cells per query as k grows:
// it took 3.12 steps per query at n = 2,048 and 4.31 (1.38×) at 16n. The
// slack grid took 2.61 and 2.80 (1.07×).
func TestGreedyRingStepScaling(t *testing.T) {
	const n, factor = 2048, 1.2
	lo, hi := greedyRingSteps(n), greedyRingSteps(16*n)
	t.Logf("ring steps per query: %.3f at n=%d, %.3f at n=%d", lo, n, hi, 16*n)
	if hi > factor*lo {
		t.Errorf("greedy repair takes %.3f ring steps per query at n=%d but %.3f at n=%d, want at most %.1f×",
			lo, n, hi, 16*n, factor)
	}
}
