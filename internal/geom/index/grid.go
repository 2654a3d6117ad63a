// Package index provides a deterministic spatial index over a fixed
// Manhattan-plane point set: a uniform bucket grid with expanding-ring
// nearest-neighbor queries.
//
// Every query is byte-identical to the exhaustive scan it replaces: the true
// nearest point always wins, and exact distance ties break toward the lowest
// point index. That rule is what lets partition's center assignment and
// annealing moves swap their O(n) scans for grid queries without perturbing
// a single output bit of the same-seed determinism contract (see DESIGN.md
// "Determinism & invariants").
//
// Queries allocate nothing in steady state — the ring walk touches only
// prebuilt cell slices — which the AllocsPerRun guards in hot_guard_test.go
// pin.
package index

import (
	"math"

	"sllt/internal/geom"
	"sllt/internal/obs"
)

// Grid is a uniform bucket grid over a fixed point set. The zero value is
// not usable; construct with New. Queries are read-only and safe for
// concurrent use.
type Grid struct {
	pts  []geom.Point // coordinates in µm, like all placement geometry
	cell float64      // unit: um // cell side length
	x0   float64      // unit: um // grid origin
	y0   float64      // unit: um
	nx   int
	ny   int
	// cells holds point indices per cell in ascending order (fill order).
	cells [][]int32
	// Kernel, when non-nil, receives per-query counters (GridQueries and
	// GridRingSteps). Atomic adds keep queries schedule-independent and
	// allocation-free, so the counters never perturb results or the
	// steady-state zero-alloc guarantee.
	Kernel *obs.KernelCounters
}

// New builds a grid over pts. The points slice is retained, not copied;
// callers must not mutate it while the grid is in use.
func New(pts []geom.Point) *Grid {
	g := &Grid{pts: pts}
	n := len(pts)
	if n == 0 {
		g.cell = 1
		g.nx, g.ny = 1, 1
		g.cells = make([][]int32, 1)
		return g
	}
	r := geom.EmptyRect()
	for _, p := range pts {
		r = r.Grow(p)
	}
	g.x0, g.y0 = r.XLo, r.YLo
	w, h := r.W(), r.H()
	// Aim for ~1 point per cell; degenerate extents (collinear or coincident
	// sets) fall back to slicing the longer axis, then to a single cell.
	cell := math.Sqrt(w * h / float64(n))
	if cell <= 0 {
		cell = max(w, h) / float64(n)
	}
	if cell <= 0 {
		cell = 1
	}
	nx, ny := int(w/cell)+1, int(h/cell)+1
	// Skewed aspect ratios can explode the cell count (nx·ny ≈ n·w/h for a
	// thin sliver); coarsen until the table stays linear in n.
	for nx*ny > 4*n+4 {
		cell *= 2
		nx, ny = int(w/cell)+1, int(h/cell)+1
	}
	g.cell, g.nx, g.ny = cell, nx, ny
	g.cells = make([][]int32, nx*ny)
	counts := make([]int32, nx*ny)
	for _, p := range pts {
		counts[g.cellOf(p)]++
	}
	backing := make([]int32, n)
	off := int32(0)
	for ci, c := range counts {
		g.cells[ci] = backing[off : off : off+c]
		off += c
	}
	// Ascending fill keeps each cell's indices sorted, which the
	// lowest-index tie rule relies on.
	for i, p := range pts {
		ci := g.cellOf(p)
		g.cells[ci] = append(g.cells[ci], int32(i))
	}
	return g
}

// cellOf returns the flattened cell index containing p, clamped to the grid.
func (g *Grid) cellOf(p geom.Point) int {
	cx, cy := g.coords(p)
	return cy*g.nx + cx
}

// coords returns p's clamped (cx, cy) cell coordinates.
func (g *Grid) coords(p geom.Point) (int, int) {
	cx := int((p.X - g.x0) / g.cell)
	cy := int((p.Y - g.y0) / g.cell)
	if cx < 0 {
		cx = 0
	} else if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= g.ny {
		cy = g.ny - 1
	}
	return cx, cy
}

// Nearest returns the index of the point nearest to q under Manhattan
// distance, together with that distance, skipping points for which skip
// returns true (skip may be nil). Exact distance ties break toward the
// lowest index — the same answer an ascending exhaustive scan produces.
// Returns (-1, 0) when no point qualifies.
//
// unit: -> _, um
func (g *Grid) Nearest(q geom.Point, skip func(int) bool) (int, float64) {
	if len(g.pts) == 0 {
		return -1, 0
	}
	if g.Kernel != nil {
		g.Kernel.GridQueries.Add(1)
	}
	rings := int64(0)
	cx, cy := g.coords(q)
	best := -1
	bestD := math.Inf(1)
	maxRing := g.nx + g.ny
	for r := 0; r <= maxRing; r++ {
		rings = int64(r)
		// A point in a ring-r cell is at least (r−1)·cell away from q (q may
		// sit anywhere inside its own clamped cell), so once the bound passes
		// the incumbent the search is complete.
		if best >= 0 && float64(r-1)*g.cell > bestD {
			break
		}
		top, bot := cy-r, cy+r
		xlo, xhi := cx-r, cx+r
		if top < 0 && bot >= g.ny && xlo < 0 && xhi >= g.nx {
			break // the ring lies entirely outside the grid; so do all later ones
		}
		// Full top/bottom rows of the ring, x-clamped once up front.
		rxlo, rxhi := xlo, xhi
		if rxlo < 0 {
			rxlo = 0
		}
		if rxhi >= g.nx {
			rxhi = g.nx - 1
		}
		if top >= 0 {
			row := top * g.nx
			for x := rxlo; x <= rxhi; x++ {
				best, bestD = g.scanCell(q, row+x, skip, best, bestD)
			}
		}
		if bot < g.ny && bot != top {
			row := bot * g.nx
			for x := rxlo; x <= rxhi; x++ {
				best, bestD = g.scanCell(q, row+x, skip, best, bestD)
			}
		}
		// Side columns between the rows, y-clamped.
		sylo, syhi := top+1, bot-1
		if sylo < 0 {
			sylo = 0
		}
		if syhi >= g.ny {
			syhi = g.ny - 1
		}
		scanL, scanR := xlo >= 0, xhi < g.nx && xhi != xlo
		if scanL || scanR {
			for y := sylo; y <= syhi; y++ {
				row := y * g.nx
				if scanL {
					best, bestD = g.scanCell(q, row+xlo, skip, best, bestD)
				}
				if scanR {
					best, bestD = g.scanCell(q, row+xhi, skip, best, bestD)
				}
			}
		}
	}
	if g.Kernel != nil {
		g.Kernel.GridRingSteps.Add(rings)
	}
	if best < 0 {
		return -1, 0
	}
	return best, bestD
}

// scanCell folds cell ci's points into the (best, bestD) incumbent.
func (g *Grid) scanCell(q geom.Point, ci int, skip func(int) bool, best int, bestD float64) (int, float64) {
	for _, i32 := range g.cells[ci] {
		i := int(i32)
		if skip != nil && skip(i) {
			continue
		}
		d := q.Dist(g.pts[i])
		//slltlint:ignore floatcmp exact equality implements the lowest-index tie rule the scans it replaces rely on
		if d < bestD || (d == bestD && i < best) {
			best, bestD = i, d
		}
	}
	return best, bestD
}
