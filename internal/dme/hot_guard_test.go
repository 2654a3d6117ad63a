package dme

import (
	"testing"

	"sllt/internal/geom"
	"sllt/internal/tech"
)

// Guard fixtures: an Elmore-model and a Linear-model option set (the tech
// formulas and the Linear early-outs), two disjoint merge nodes whose delay
// windows admit a balanced split at their distance but not at distance
// zero, and sinks that keep the compiler from discarding the guarded calls.
var (
	guardElmore = Options{Model: Elmore, Tech: tech.Default28nm()}
	guardLinear = Options{Model: Linear}
	guardA      = &mnode{ms: geom.OctFromPoint(geom.Pt(0, 0)).Expand(2), lo: 0, hi: 1, cap: 3}
	guardB      = &mnode{ms: geom.OctFromPoint(geom.Pt(30, 10)).Expand(1), lo: 4, hi: 5, cap: 2}
	guardD      = guardA.ms.Dist(guardB.ms)

	guardSinkF  float64
	guardSinkF2 float64
)

// allocFreeGuards pins every allocation-free kernel in this package at zero
// steady-state allocations, keyed by the kernel's display name. Together
// the inputs of an entry execute every statement of its kernel; the CI
// coverage step checks that they still do.
var allocFreeGuards = map[string][]func(){
	"Options.delayAdd": {
		func() { guardSinkF = guardElmore.delayAdd(120, 4) },
		func() { guardSinkF = guardLinear.delayAdd(120, 4) },
	},
	"Options.invDelayAdd": {
		func() { guardSinkF = guardElmore.invDelayAdd(50, 4) },
		func() { guardSinkF = guardLinear.invDelayAdd(50, 4) },
		func() { guardSinkF = guardElmore.invDelayAdd(0, 4) },
	},
	"Options.wireCap": {
		func() { guardSinkF = guardElmore.wireCap(120) },
		func() { guardSinkF = guardLinear.wireCap(120) },
	},
	"clampF": {
		func() { guardSinkF = clampF(-1, 0, 3) },
		func() { guardSinkF = clampF(5, 0, 3) },
		func() { guardSinkF = clampF(2, 0, 3) },
	},
	"linearSplit": {
		func() { guardSinkF, guardSinkF2 = linearSplit(guardA, guardB, guardD, 2) },
		// At distance zero a is too fast, and with the nodes swapped b is.
		func() { guardSinkF, guardSinkF2 = linearSplit(guardA, guardB, 0, 2) },
		func() { guardSinkF, guardSinkF2 = linearSplit(guardB, guardA, 0, 2) },
	},
	"linearMergeCost": {
		func() { guardSinkF = linearMergeCost(guardA, guardB, 2) },
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
