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

// allocFreeGuards pins every allocation-free kernel in this package at zero
// steady-state allocations, keyed by the kernel's display name. Together
// the inputs of an entry execute every statement of its kernel; the CI
// coverage step checks that they still do.
var allocFreeGuards = map[string][]func(){
	"median3": {func() { guardSinkP = median3(geom.Pt(0, 9), geom.Pt(4, 1), geom.Pt(2, 5)) }},
	"median":  {func() { guardSinkF = median(3, 1, 2) }},
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
