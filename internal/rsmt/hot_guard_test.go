package rsmt

import (
	"testing"

	"sllt/internal/geom"
)

// Guard sinks keep the compiler from discarding the guarded calls.
var (
	guardSinkP geom.Point
	guardSinkF float64
)

// allocFreeGuards pins every // hot: alloc-free kernel in this package at
// zero steady-state allocations, keyed by the kernel's display name. The
// guardcov test in internal/analysis/hotpath checks the map stays in sync
// with the annotations.
var allocFreeGuards = map[string]func(){
	"median3": func() {
		guardSinkP = median3(geom.Pt(0, 9), geom.Pt(4, 1), geom.Pt(2, 5))
	},
	"median": func() {
		guardSinkF = median(3, 1, 2)
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
