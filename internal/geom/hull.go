package geom

import (
	"cmp"
	"slices"
)

// ConvexHull returns the convex hull of pts in counter-clockwise order using
// Andrew's monotone chain. Collinear boundary points are dropped. The input
// slice is not modified. Degenerate inputs (0, 1, 2 points, or all collinear)
// return the extreme points that remain.
func ConvexHull(pts []Point) []Point {
	n := len(pts)
	if n <= 2 {
		out := make([]Point, n)
		copy(out, pts)
		return out
	}
	sorted := make([]Point, n)
	copy(sorted, pts)
	slices.SortFunc(sorted, func(a, b Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Y, b.Y)
	})
	return SortedHull(make([]Point, 0, 2*n), sorted)
}

// SortedHull is ConvexHull's merge and monotone chain on input already
// ordered by X, then Y. Each run of points that coincide within Eps of its
// first point is merged into that point, in place, so sorted is
// overwritten. The hull is built in buf's storage, from buf[:0]; a buf with
// capacity 2·len(sorted) is never outgrown. Unlike ConvexHull, two input
// points that coincide are merged.
func SortedHull(buf, sorted []Point) []Point {
	uniq := sorted[:0]
	for _, p := range sorted {
		if len(uniq) == 0 || !p.Eq(uniq[len(uniq)-1]) {
			uniq = append(uniq, p)
		}
	}
	hull := buf[:0]
	if len(uniq) <= 2 {
		return append(hull, uniq...)
	}
	// Lower hull.
	for _, p := range uniq {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// Upper hull.
	lower := len(hull) + 1
	for i := len(uniq) - 2; i >= 0; i-- {
		p := uniq[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// cross returns the z-component of (b-a) × (c-a): positive if a→b→c turns
// counter-clockwise.
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// OnHull reports whether p is a vertex of the given hull.
func OnHull(hull []Point, p Point) bool {
	for _, h := range hull {
		if h.Eq(p) {
			return true
		}
	}
	return false
}
