package index

import (
	"math"
	"testing"

	"sllt/internal/geom"
)

// Guard fixtures: a static grid over a deterministic 8×8 lattice and sinks
// that keep the compiler from discarding the guarded calls.
var (
	guardPts = func() []geom.Point {
		pts := make([]geom.Point, 0, 64)
		for i := 0; i < 64; i++ {
			pts = append(pts, geom.Pt(float64(i%8)*7.5, float64(i/8)*5.25))
		}
		return pts
	}()
	guardGrid = New(guardPts)

	guardSinkN int
	guardSinkF float64
)

// allocFreeGuards pins every // hot: alloc-free kernel in this package at
// zero steady-state allocations, keyed by the kernel's display name. The
// guardcov test in internal/analysis/hotpath checks the map stays in sync
// with the annotations.
var allocFreeGuards = map[string]func(){
	"Grid.Nearest": func() {
		guardSinkN, guardSinkF = guardGrid.Nearest(geom.Pt(13, 11), nil)
	},
	"Grid.scanCell": func() {
		guardSinkN, guardSinkF = guardGrid.scanCell(geom.Pt(3, 3), 0, nil, -1, math.Inf(1))
	},
}

func TestAllocFreeGuards(t *testing.T) {
	for name, fn := range allocFreeGuards {
		fn() // warm up any first-call growth before measuring
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.1f times per op, want 0", name, n)
		}
	}
}
