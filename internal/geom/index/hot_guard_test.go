package index

import (
	"math"
	"math/rand"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/obs"
)

// Guard fixtures: grids over an 8×8 lattice, over an 8×2 strip of points,
// over nothing, and over 2,000 random points with kernel counters attached
// the way partition's queries run, plus sinks that keep the compiler from
// discarding the guarded calls.
var (
	guardGrid  = New(latticePts(8, 8, 7.5, 5.25))
	guardStrip = New(latticePts(8, 2, 4, 4))
	guardEmpty = New(nil)
	guardRand  = func() *Grid {
		g := New(randPts(2000, rand.New(rand.NewSource(17))))
		g.Kernel = &obs.KernelCounters{}
		return g
	}()

	guardSinkN int
	guardSinkF float64
)

func latticePts(nx, ny int, dx, dy float64) []geom.Point {
	pts := make([]geom.Point, 0, nx*ny)
	for i := 0; i < nx*ny; i++ {
		pts = append(pts, geom.Pt(float64(i%nx)*dx, float64(i/nx)*dy))
	}
	return pts
}

func skipAll(int) bool { return true }

func skipFirst(i int) bool { return i == 0 }

// allocFreeGuards pins every allocation-free kernel in this package at zero
// steady-state allocations, keyed by the kernel's display name. Together
// the inputs of an entry execute every statement of its kernel; the CI
// coverage step checks that they still do.
var allocFreeGuards = map[string][]func(){
	"Grid.Nearest": {
		// A query in the rightmost column clamps the ring's right edge.
		func() { guardSinkN, guardSinkF = guardGrid.Nearest(geom.Pt(52, 11), nil) },
		func() { guardSinkN, guardSinkF = guardEmpty.Nearest(geom.Pt(1, 1), nil) },
		// Every point skipped: the walk runs until its ring leaves the grid.
		func() { guardSinkN, guardSinkF = guardStrip.Nearest(geom.Pt(0, 0), skipAll) },
		func() { guardSinkN, guardSinkF = guardRand.Nearest(geom.Pt(50, 50), nil) },
	},
	"Grid.scanCell": {
		// The lattice's first cell holds points 0 and 8: one skipped, one kept.
		func() { guardSinkN, guardSinkF = guardGrid.scanCell(geom.Pt(3, 3), 0, skipFirst, -1, math.Inf(1)) },
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
