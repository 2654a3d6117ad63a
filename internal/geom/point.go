// Package geom provides Manhattan-plane geometry for clock tree synthesis:
// points, bounding boxes, rotated (u,v) coordinates, tilted rectangular
// regions (TRRs) used by deferred-merge embedding, and convex hulls.
//
// Coordinates are float64 in micrometers. Algorithms that need exact integer
// geometry (DEF emission) convert database units at the boundary.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance used for geometric comparisons. One millionth of a
// micrometer (a picometer) is far below any manufacturable grid.
const Eps = 1e-6

// Point is a location on the Manhattan plane, in micrometers.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%g,%g)", p.X, p.Y) }

// Dist returns the Manhattan (L1) distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Abs(p.X-q.X) + math.Abs(p.Y-q.Y)
}

// Eq reports whether p and q coincide within Eps.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Lerp returns the point a fraction t of the way from p to q (t in [0,1]).
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// UV is a point in the 45°-rotated coordinate system u = x+y, v = x−y.
// Manhattan distance in (x,y) equals Chebyshev (L∞) distance in (u,v),
// which turns tilted rectangles into axis-aligned ones.
type UV struct {
	U, V float64
}

// ToUV rotates p into (u,v) space.
func (p Point) ToUV() UV { return UV{U: p.X + p.Y, V: p.X - p.Y} }

// ToXY rotates back into (x,y) space.
func (q UV) ToXY() Point { return Point{X: (q.U + q.V) / 2, Y: (q.U - q.V) / 2} }

// Cheb returns the Chebyshev distance between two UV points, which equals
// the Manhattan distance between their pre-images.
func (q UV) Cheb(r UV) float64 {
	du := math.Abs(q.U - r.U)
	dv := math.Abs(q.V - r.V)
	return max(du, dv)
}

// Rect is an axis-aligned rectangle on the (x,y) plane. It is closed:
// boundary points are inside. An empty rectangle has XLo > XHi or YLo > YHi.
type Rect struct {
	XLo, YLo, XHi, YHi float64
}

// EmptyRect returns the canonical empty rectangle, ready to Grow.
func EmptyRect() Rect {
	inf := math.Inf(1)
	return Rect{XLo: inf, YLo: inf, XHi: -inf, YHi: -inf}
}

// RectOf returns the bounding box of the given points.
func RectOf(pts ...Point) Rect {
	r := EmptyRect()
	for _, p := range pts {
		r = r.Grow(p)
	}
	return r
}

// Empty reports whether r contains no points.
func (r Rect) Empty() bool { return r.XLo > r.XHi || r.YLo > r.YHi }

// Grow returns r expanded to contain p.
func (r Rect) Grow(p Point) Rect {
	return Rect{
		XLo: min(r.XLo, p.X), YLo: min(r.YLo, p.Y),
		XHi: max(r.XHi, p.X), YHi: max(r.YHi, p.Y),
	}
}

// Contains reports whether p lies in r (boundary inclusive, within Eps).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.XLo-Eps && p.X <= r.XHi+Eps && p.Y >= r.YLo-Eps && p.Y <= r.YHi+Eps
}

// Center returns the midpoint of r.
func (r Rect) Center() Point { return Point{(r.XLo + r.XHi) / 2, (r.YLo + r.YHi) / 2} }

// W returns the width of r (0 for empty).
func (r Rect) W() float64 {
	if r.Empty() {
		return 0
	}
	return r.XHi - r.XLo
}

// H returns the height of r (0 for empty).
func (r Rect) H() float64 {
	if r.Empty() {
		return 0
	}
	return r.YHi - r.YLo
}

// HalfPerimeter returns the half-perimeter wirelength of r.
func (r Rect) HalfPerimeter() float64 { return r.W() + r.H() }
