package geom

import "fmt"

// TRR is a tilted rectangular region: a rectangle whose sides have slope ±1
// on the (x,y) plane. In the rotated (u,v) space it is axis-aligned, so all
// TRR algebra reduces to interval arithmetic.
//
// TRRs are the fundamental object of deferred-merge embedding (DME): the
// locus of points at a fixed Manhattan distance from a point is a tilted
// square boundary, the set within distance r is a tilted square (a TRR),
// and merging segments are degenerate TRRs (Manhattan arcs).
//
// The zero TRR is invalid; construct with TRRFromPoint, TRRFromUV, or by
// expanding/intersecting existing TRRs. An empty TRR has ULo > UHi or
// VLo > VHi.
type TRR struct {
	ULo, VLo, UHi, VHi float64
}

// TRRFromPoint returns the degenerate TRR holding exactly p.
func TRRFromPoint(p Point) TRR {
	q := p.ToUV()
	return TRR{ULo: q.U, VLo: q.V, UHi: q.U, VHi: q.V}
}

// String implements fmt.Stringer.
func (t TRR) String() string {
	return fmt.Sprintf("TRR[u:%g..%g v:%g..%g]", t.ULo, t.UHi, t.VLo, t.VHi)
}

// Empty reports whether t contains no points.
func (t TRR) Empty() bool { return t.ULo > t.UHi+Eps || t.VLo > t.VHi+Eps }

// IsPoint reports whether t is a single point (within Eps).
func (t TRR) IsPoint() bool {
	return !t.Empty() && t.UHi-t.ULo <= Eps && t.VHi-t.VLo <= Eps
}

// Expand returns the Minkowski sum of t with a tilted square of radius r:
// every point within Manhattan distance r of t. r must be >= 0.
func (t TRR) Expand(r float64) TRR {
	if r < 0 {
		r = 0
	}
	return TRR{ULo: t.ULo - r, VLo: t.VLo - r, UHi: t.UHi + r, VHi: t.VHi + r}
}

// Intersect returns the intersection of t and s (possibly empty).
func (t TRR) Intersect(s TRR) TRR {
	return TRR{
		ULo: max(t.ULo, s.ULo), VLo: max(t.VLo, s.VLo),
		UHi: min(t.UHi, s.UHi), VHi: min(t.VHi, s.VHi),
	}
}

// Dist returns the minimum Manhattan distance between any point of t and any
// point of s (0 if they intersect). Both must be non-empty.
func (t TRR) Dist(s TRR) float64 {
	du := intervalGap(t.ULo, t.UHi, s.ULo, s.UHi)
	dv := intervalGap(t.VLo, t.VHi, s.VLo, s.VHi)
	// Chebyshev separation between axis-aligned rectangles in (u,v):
	// the gap along each axis closes independently, so the distance is the
	// larger of the two gaps.
	return max(du, dv)
}

func intervalGap(aLo, aHi, bLo, bHi float64) float64 {
	if aHi < bLo {
		return bLo - aHi
	}
	if bHi < aLo {
		return aLo - bHi
	}
	return 0
}

// Contains reports whether p lies in t.
func (t TRR) Contains(p Point) bool {
	q := p.ToUV()
	return q.U >= t.ULo-Eps && q.U <= t.UHi+Eps && q.V >= t.VLo-Eps && q.V <= t.VHi+Eps
}

// Nearest returns the point of t with minimum Manhattan distance to p.
// For degenerate directions the lattice-consistent clamp is used, so the
// result is stable and always inside t.
func (t TRR) Nearest(p Point) Point {
	q := p.ToUV()
	u := clamp(q.U, t.ULo, t.UHi)
	v := clamp(q.V, t.VLo, t.VHi)
	return UV{U: u, V: v}.ToXY()
}

// NearestTo returns the pair of points (one in t, one in s) achieving the
// minimum Manhattan distance between the two regions.
func (t TRR) NearestTo(s TRR) (Point, Point) {
	// Work per axis in (u,v): closest interval points.
	tu, su := nearestOnAxis(t.ULo, t.UHi, s.ULo, s.UHi)
	tv, sv := nearestOnAxis(t.VLo, t.VHi, s.VLo, s.VHi)
	return UV{U: tu, V: tv}.ToXY(), UV{U: su, V: sv}.ToXY()
}

func nearestOnAxis(aLo, aHi, bLo, bHi float64) (a, b float64) {
	switch {
	case aHi < bLo:
		return aHi, bLo
	case bHi < aLo:
		return aLo, bHi
	default: // overlapping: meet in the shared interval
		lo := max(aLo, bLo)
		hi := min(aHi, bHi)
		m := (lo + hi) / 2
		return m, m
	}
}

// Corners returns the four corners of t on the (x,y) plane in order.
// Degenerate TRRs repeat corners.
func (t TRR) Corners() [4]Point {
	return [4]Point{
		UV{U: t.ULo, V: t.VLo}.ToXY(),
		UV{U: t.UHi, V: t.VLo}.ToXY(),
		UV{U: t.UHi, V: t.VHi}.ToXY(),
		UV{U: t.ULo, V: t.VHi}.ToXY(),
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
