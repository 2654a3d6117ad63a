package geom

import (
	"fmt"
	"math"
)

// Octagon is a convex octilinear region: the intersection of half-planes in
// the four Manhattan-relevant directions. In the rotated (u,v) space it is
//
//	ULo ≤ u ≤ UHi,  VLo ≤ v ≤ VHi,
//	SLo ≤ u+v ≤ SHi  (u+v = 2x),
//	WLo ≤ u−v ≤ WHi  (u−v = 2y),
//
// which covers TRRs (S/W unconstrained), axis-aligned rectangles (U/V
// unconstrained) and every shape in between. Bounded-skew DME merging
// regions are exactly such octagons (Cong/Kahng/Koh/Tsao), which is why the
// type lives here.
//
// Operations keep the octagon in canonical (tightened) form, where every
// bound is attained.
type Octagon struct {
	ULo, UHi float64
	VLo, VHi float64
	SLo, SHi float64
	WLo, WHi float64
}

// OctFromTRR lifts a TRR into octagon form.
func OctFromTRR(t TRR) Octagon {
	o := Octagon{
		ULo: t.ULo, UHi: t.UHi,
		VLo: t.VLo, VHi: t.VHi,
		SLo: math.Inf(-1), SHi: math.Inf(1),
		WLo: math.Inf(-1), WHi: math.Inf(1),
	}
	return o.Canon()
}

// OctFromPoint returns the degenerate octagon holding exactly p.
func OctFromPoint(p Point) Octagon { return OctFromTRR(TRRFromPoint(p)) }

// String implements fmt.Stringer.
func (o Octagon) String() string {
	return fmt.Sprintf("Oct[u:%g..%g v:%g..%g s:%g..%g w:%g..%g]",
		o.ULo, o.UHi, o.VLo, o.VHi, o.SLo, o.SHi, o.WLo, o.WHi)
}

// Canon tightens all bounds to their attained values (difference-bound
// closure over the four direction pairs). Bound pairs that come out
// inverted within tolerance — the float residue of long expand/intersect
// chains on degenerate regions — are snapped to their midpoint, which
// stops the inversion from amplifying through repeated tightening while
// leaving genuinely empty regions (gap above Eps) inverted.
func (o Octagon) Canon() Octagon {
	for i := 0; i < 3; i++ {
		o.SLo = math.Max(o.SLo, o.ULo+o.VLo)
		o.SHi = math.Min(o.SHi, o.UHi+o.VHi)
		o.WLo = math.Max(o.WLo, o.ULo-o.VHi)
		o.WHi = math.Min(o.WHi, o.UHi-o.VLo)
		o.ULo = math.Max(o.ULo, math.Max(o.SLo-o.VHi, o.WLo+o.VLo))
		o.UHi = math.Min(o.UHi, math.Min(o.SHi-o.VLo, o.WHi+o.VHi))
		o.VLo = math.Max(o.VLo, math.Max(o.SLo-o.UHi, o.ULo-o.WHi))
		o.VHi = math.Min(o.VHi, math.Min(o.SHi-o.ULo, o.UHi-o.WLo))
	}
	snapPair(&o.ULo, &o.UHi)
	snapPair(&o.VLo, &o.VHi)
	snapPair(&o.SLo, &o.SHi)
	snapPair(&o.WLo, &o.WHi)
	return o
}

func snapPair(lo, hi *float64) {
	if *lo > *hi && *lo-*hi <= Eps {
		m := (*lo + *hi) / 2
		*lo, *hi = m, m
	}
}

// Empty reports whether the region contains no points.
func (o Octagon) Empty() bool {
	return o.ULo > o.UHi+Eps || o.VLo > o.VHi+Eps ||
		o.SLo > o.SHi+Eps || o.WLo > o.WHi+Eps
}

// Contains reports whether p lies in the region (within Eps).
func (o Octagon) Contains(p Point) bool {
	q := p.ToUV()
	s, w := q.U+q.V, q.U-q.V
	return q.U >= o.ULo-Eps && q.U <= o.UHi+Eps &&
		q.V >= o.VLo-Eps && q.V <= o.VHi+Eps &&
		s >= o.SLo-2*Eps && s <= o.SHi+2*Eps &&
		w >= o.WLo-2*Eps && w <= o.WHi+2*Eps
}

// Expand returns the Minkowski sum with the Manhattan ball of radius r: the
// tilted square of radius r in (x,y), which is the Chebyshev square in
// (u,v). u/v bounds grow by r; the diagonal s/w bounds grow by 2r (the
// square's support in the diagonal directions).
func (o Octagon) Expand(r float64) Octagon {
	if r < 0 {
		r = 0
	}
	return Octagon{
		ULo: o.ULo - r, UHi: o.UHi + r,
		VLo: o.VLo - r, VHi: o.VHi + r,
		SLo: o.SLo - 2*r, SHi: o.SHi + 2*r,
		WLo: o.WLo - 2*r, WHi: o.WHi + 2*r,
	}.Canon()
}

// Intersect returns the intersection (possibly empty).
func (o Octagon) Intersect(p Octagon) Octagon {
	return Octagon{
		ULo: math.Max(o.ULo, p.ULo), UHi: math.Min(o.UHi, p.UHi),
		VLo: math.Max(o.VLo, p.VLo), VHi: math.Min(o.VHi, p.VHi),
		SLo: math.Max(o.SLo, p.SLo), SHi: math.Min(o.SHi, p.SHi),
		WLo: math.Max(o.WLo, p.WLo), WHi: math.Min(o.WHi, p.WHi),
	}.Canon()
}

// Hull returns the smallest octagon containing both operands: per-direction
// support maxima. For 4-direction octagons this is exactly the convex hull
// when the operands slide along a common corner trajectory (the DME merging
// union); in general it is the tightest octagonal cover.
func (o Octagon) Hull(p Octagon) Octagon {
	return Octagon{
		ULo: math.Min(o.ULo, p.ULo), UHi: math.Max(o.UHi, p.UHi),
		VLo: math.Min(o.VLo, p.VLo), VHi: math.Max(o.VHi, p.VHi),
		SLo: math.Min(o.SLo, p.SLo), SHi: math.Max(o.SHi, p.SHi),
		WLo: math.Min(o.WLo, p.WLo), WHi: math.Max(o.WHi, p.WHi),
	}.Canon()
}

// Vertices returns the (up to 8) corners of the octagon in (x,y),
// counter-clockwise, computed by clipping the U/V rectangle against the
// four diagonal half-planes (Sutherland–Hodgman). Degenerate octagons may
// return fewer vertices; an empty octagon returns none.
func (o Octagon) Vertices() []Point {
	var buf [8]Point
	n := o.verticesInto(&buf)
	if n == 0 {
		return nil
	}
	out := make([]Point, n)
	copy(out, buf[:n])
	return out
}

// verticesInto writes the octagon's corners (counter-clockwise,
// deduplicated) into buf and returns the count. A 4-gon clipped by four
// half-planes gains at most one vertex per clip, so eight slots always
// suffice and the whole computation stays on the caller's stack — this is
// the zero-allocation core behind Vertices, Nearest, and Dist, which the
// DME merge loop calls per candidate pair.
func (o Octagon) verticesInto(buf *[8]Point) int {
	if o.Empty() {
		return 0
	}
	// Start from the (u,v) rectangle, counter-clockwise.
	var pa, pb [8][2]float64
	pa[0] = [2]float64{o.UHi, o.VLo}
	pa[1] = [2]float64{o.UHi, o.VHi}
	pa[2] = [2]float64{o.ULo, o.VHi}
	pa[3] = [2]float64{o.ULo, o.VLo}
	n := 4
	// Half-planes a·u + b·v <= c.
	clips := [4][3]float64{
		{1, 1, o.SHi},
		{-1, -1, -o.SLo},
		{1, -1, o.WHi},
		{-1, 1, -o.WLo},
	}
	cur, nxt := &pa, &pb
	for _, hp := range clips {
		n = clipUVInto(cur, n, hp[0], hp[1], hp[2], nxt)
		if n == 0 {
			return 0
		}
		cur, nxt = nxt, cur
	}
	m := 0
	for _, c := range cur[:n] {
		p := UV{U: c[0], V: c[1]}.ToXY()
		if m == 0 || !buf[m-1].Eq(p) {
			buf[m] = p
			m++
		}
	}
	if m > 1 && buf[0].Eq(buf[m-1]) {
		m--
	}
	return m
}

// clipUVInto clips the convex polygon in[:n] (in (u,v) coordinates) against
// a·u+b·v <= c, writing the result into out and returning its vertex count.
// Clipping a convex polygon by one half-plane adds at most one vertex, so
// out never needs more than 8 slots along the verticesInto chain.
func clipUVInto(in *[8][2]float64, n int, a, b, c float64, out *[8][2]float64) int {
	m := 0
	for i := 0; i < n; i++ {
		p, q := in[i], in[(i+1)%n]
		fp := a*p[0] + b*p[1] - c
		fq := a*q[0] + b*q[1] - c
		if fp <= Eps {
			out[m] = p
			m++
		}
		if (fp < -Eps && fq > Eps) || (fp > Eps && fq < -Eps) {
			t := fp / (fp - fq)
			out[m] = [2]float64{p[0] + t*(q[0]-p[0]), p[1] + t*(q[1]-p[1])}
			m++
		}
	}
	return m
}

// Nearest returns the point of the region with minimum Manhattan distance
// to p.
func (o Octagon) Nearest(p Point) Point {
	if o.Contains(p) {
		return p
	}
	var buf [8]Point
	n := o.verticesInto(&buf)
	verts := buf[:n]
	best := verts[0]
	bestD := best.Dist(p)
	for i := range verts {
		a, b := verts[i], verts[(i+1)%len(verts)]
		q := nearestOnSegmentL1(a, b, p)
		if d := q.Dist(p); d < bestD {
			best, bestD = q, d
		}
	}
	return best
}

// DistPoint returns the Manhattan distance from p to the region.
func (o Octagon) DistPoint(p Point) float64 {
	return o.Nearest(p).Dist(p)
}

// Dist returns the minimum Manhattan distance between two octagons (0 when
// they intersect). Computed over vertex-edge pairs, which is exact for
// convex polygons under any norm.
func (o Octagon) Dist(p Octagon) float64 {
	if !o.Intersect(p).Empty() {
		return 0
	}
	best := math.Inf(1)
	var bo, bp [8]Point
	vo, vp := bo[:o.verticesInto(&bo)], bp[:p.verticesInto(&bp)]
	for _, v := range vo {
		for i := range vp {
			q := nearestOnSegmentL1(vp[i], vp[(i+1)%len(vp)], v)
			if d := q.Dist(v); d < best {
				best = d
			}
		}
	}
	for _, v := range vp {
		for i := range vo {
			q := nearestOnSegmentL1(vo[i], vo[(i+1)%len(vo)], v)
			if d := q.Dist(v); d < best {
				best = d
			}
		}
	}
	return best
}

// AnyPoint returns a representative interior point.
func (o Octagon) AnyPoint() Point {
	u := (o.ULo + o.UHi) / 2
	v := (o.VLo + o.VHi) / 2
	// Clamp the center into the diagonal bands.
	s := clamp(u+v, o.SLo, o.SHi)
	w := clamp(u-v, o.WLo, o.WHi)
	return UV{U: (s + w) / 2, V: (s - w) / 2}.ToXY()
}

// nearestOnSegmentL1 returns the point on segment ab minimizing Manhattan
// distance to p. The distance along the segment is piecewise linear in the
// parameter, so the minimum is at one of at most six breakpoints, collected
// in a fixed stack buffer.
func nearestOnSegmentL1(a, b, p Point) Point {
	dx, dy := b.X-a.X, b.Y-a.Y
	var cands [6]float64
	cands[0], cands[1] = 0, 1
	n := 2
	if Sign(dx) != 0 {
		cands[n] = (p.X - a.X) / dx // |dx(t)| = 0
		n++
	}
	if Sign(dy) != 0 {
		cands[n] = (p.Y - a.Y) / dy // |dy(t)| = 0
		n++
	}
	// |dx(t)| = |dy(t)| breakpoints.
	if Sign(dx-dy) != 0 {
		cands[n] = (p.X - a.X - (p.Y - a.Y)) / (dx - dy)
		n++
	}
	if Sign(dx+dy) != 0 {
		cands[n] = (p.X - a.X + (p.Y - a.Y)) / (dx + dy)
		n++
	}
	best := a
	bestD := math.Inf(1)
	for _, t := range cands[:n] {
		t = clamp(t, 0, 1)
		q := Pt(a.X+t*dx, a.Y+t*dy)
		if d := q.Dist(p); d < bestD {
			best, bestD = q, d
		}
	}
	return best
}
