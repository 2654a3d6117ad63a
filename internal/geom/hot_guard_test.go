package geom

import (
	"math"
	"testing"
)

// Guard fixtures: a diamond, one that overlaps it, the empty intersection
// of two disjoint ones, an axis-aligned 10×2 box with a point above it
// (nearest to the box's edge, not to a corner), a Manhattan arc (whose
// corner list closes on itself), an unnormalized u/v box that the s-band
// clips away entirely, and sinks that keep the compiler from discarding
// the guarded calls.
var (
	guardOctA     = OctFromPoint(Pt(0, 0)).Expand(3)
	guardOctB     = OctFromPoint(Pt(4, 0)).Expand(2)
	guardOctEmpty = guardOctA.Intersect(OctFromPoint(Pt(40, 25)).Expand(2))
	guardOctBox   = Octagon{
		ULo: 0, UHi: 12, VLo: -2, VHi: 10,
		SLo: 0, SHi: 20, WLo: 0, WHi: 4,
	}.Canon()
	guardOctPt   = OctFromPoint(Pt(5, 5))
	guardOctArc  = OctFromTRR(TRRFromSegment(Pt(0, 0), Pt(2, -2)))
	guardOctBand = Octagon{
		ULo: 0, UHi: 1, VLo: 0, VHi: 1,
		SLo: 10, SHi: 20, WLo: math.Inf(-1), WHi: math.Inf(1),
	}

	guardSinkP Point
	guardSinkF float64
	guardSinkN int
)

// verticesInput guards verticesInto on o, with the corner buffer on the
// caller's stack as in Nearest and Dist.
func verticesInput(o Octagon) func() {
	return func() {
		var buf [8]Point
		guardSinkN = o.verticesInto(&buf)
	}
}

// allocFreeGuards pins every allocation-free kernel in this package at zero
// steady-state allocations, keyed by the kernel's display name. Together
// the inputs of an entry execute every statement of its kernel; the CI
// coverage step checks that they still do.
var allocFreeGuards = map[string][]func(){
	"Octagon.verticesInto": {
		verticesInput(guardOctArc),
		verticesInput(guardOctEmpty),
		verticesInput(guardOctBand),
	},
	"clipUVInto": {
		func() {
			var in, out [8][2]float64
			in[0] = [2]float64{1, 0}
			in[1] = [2]float64{1, 1}
			in[2] = [2]float64{0, 1}
			in[3] = [2]float64{0, 0}
			guardSinkN = clipUVInto(&in, 4, 1, 1, 1.2, &out)
		},
	},
	"Octagon.Nearest": {
		func() { guardSinkP = guardOctA.Nearest(Pt(30, -20)) },
		func() { guardSinkP = guardOctA.Nearest(Pt(1, 1)) },
	},
	"Octagon.Dist": {
		func() { guardSinkF = guardOctBox.Dist(guardOctPt) },
		func() { guardSinkF = guardOctA.Dist(guardOctB) },
	},
	"nearestOnSegmentL1": {
		func() { guardSinkP = nearestOnSegmentL1(Pt(0, 0), Pt(10, 4), Pt(3, 9)) },
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
