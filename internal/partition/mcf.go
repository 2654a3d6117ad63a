package partition

import (
	"math"

	"sllt/internal/geom"
	"sllt/internal/obs"
)

// assignMCF solves the capacitated assignment exactly as a min-cost
// max-flow: source → point (cap 1) → center (cap 1, cost = Manhattan
// distance) → sink (cap = cluster capacity). Successive shortest paths with
// Johnson potentials keep every Dijkstra run on non-negative reduced costs.
// A point the flow cannot route (cap·k < n) falls to center 0.
func assignMCF(pts []geom.Point, centers []geom.Point, cap int, kern *obs.KernelCounters) []int {
	s := newMCFSolver(pts, centers, cap)
	s.solve(kern)
	for i, a := range s.assign {
		if a < 0 {
			s.assign[i] = 0
		}
	}
	return s.assign
}

// mcfSolver is assignMCF's flow network with an implicit residual graph.
// Every unit of flow runs source → point → center → sink, so the flow is
// the assignment: point i's source edge is saturated iff assign[i] ≥ 0,
// its edge to center j iff assign[i] == j, and center j's sink edge carries
// load[j] units. Node ids: 0 is the source, 1..n the points, n+1..n+k the
// centers and n+k+1 the sink.
type mcfSolver struct {
	n, k, cap int
	cost      []float64 // n×k row-major: cost[i*k+j] = |point i − center j|
	assign    []int     // per point: its center, -1 while unrouted
	load      []int     // per center: its member count
	slots     int       // member slots per center: min(cap, n)
	mem       []int     // center j's members, ascending: mem[j*slots:][:load[j]]
	dist      []float64 // per node: reduced distance from the source
	pot       []float64 // per node: Johnson potential
	prev      []int     // per node: predecessor on the shortest-path tree
	heap      mcfHeap
}

func newMCFSolver(pts []geom.Point, centers []geom.Point, cap int) *mcfSolver {
	n, k := len(pts), len(centers)
	s := &mcfSolver{
		n: n, k: k, cap: cap,
		cost:   make([]float64, n*k),
		assign: make([]int, n),
		load:   make([]int, k),
		slots:  min(cap, n),
		dist:   make([]float64, n+k+2),
		pot:    make([]float64, n+k+2),
		prev:   make([]int, n+k+2),
		heap:   make(mcfHeap, 0, n+k+2),
	}
	s.mem = make([]int, k*s.slots)
	for i, p := range pts {
		for j, c := range centers {
			s.cost[i*k+j] = p.Dist(c)
		}
	}
	return s
}

// solve routes the points from an empty flow, one augmenting path per
// unit, until every point is routed or the sink is out of reach.
func (s *mcfSolver) solve(kern *obs.KernelCounters) {
	for i := range s.assign {
		s.assign[i] = -1
	}
	clear(s.load)
	clear(s.pot)
	for range s.n {
		s.shortestPaths()
		if math.IsInf(s.dist[s.n+s.k+1], 1) {
			return // saturated
		}
		if kern != nil {
			kern.MCFAugments.Add(1)
		}
		s.augment()
	}
}

// shortestPaths runs one Dijkstra from the source on reduced costs, filling
// dist and prev. It takes the steps of a solver over an explicit residual
// edge list (kept in the tests as oracleAssignMCF): each node relaxes its
// residual edges in that solver's adjacency order, with the same float
// expression, the same 1e-12 margin and the same heap order, so every pop,
// tie and distance matches. That order is:
//
//   - the source: each unrouted point, ascending (cost +0);
//   - point i: the source back if i is routed (cost −0), then every center
//     but its own, ascending (cost = distance);
//   - center j: its members, ascending (cost −distance), then the sink if
//     load[j] < cap (cost +0);
//   - the sink: each center with load, ascending (cost −0).
//
// The sink's pop relaxes too and the search runs until the heap is empty,
// so the potentials take every finite distance; stopping at the sink would
// change them, and with them how later exact ties resolve.
func (s *mcfSolver) shortestPaths() {
	n, k := s.n, s.k
	c0, snk := n+1, n+k+1
	negZero := math.Copysign(0, -1)
	dist := s.dist
	for v := range dist {
		dist[v] = math.Inf(1)
		s.prev[v] = -1
	}
	dist[0] = 0
	s.heap.push(0, 0)
	for len(s.heap) > 0 {
		u, d := s.heap.pop()
		if d > dist[u] {
			continue // stale entry
		}
		switch {
		case u == 0:
			for i, a := range s.assign {
				if a < 0 {
					s.relax(u, 1+i, d, 0)
				}
			}
		case u < c0:
			i := u - 1
			a := s.assign[i]
			if a >= 0 {
				s.relax(u, 0, d, negZero)
			}
			row := s.cost[i*k:][:k]
			if a < 0 {
				s.relaxRow(u, d, row, 0)
			} else {
				s.relaxRow(u, d, row[:a], 0)
				s.relaxRow(u, d, row[a+1:], a+1)
			}
		case u < snk:
			j := u - c0
			for _, i := range s.members(j) {
				s.relax(u, 1+i, d, -s.cost[i*k+j])
			}
			if s.load[j] < s.cap {
				s.relax(u, snk, d, 0)
			}
		default:
			for j, l := range s.load {
				if l > 0 {
					s.relax(u, c0+j, d, negZero)
				}
			}
		}
	}
}

// relax offers node v the distance d through u over an edge of cost c.
// Relaxations into the source go through here too: in exact arithmetic
// they never improve a distance, but under float error they can, and the
// edge-list solver takes those updates as well.
func (s *mcfSolver) relax(u, v int, d, c float64) {
	if nd := d + c + s.pot[u] - s.pot[v]; nd < s.dist[v]-1e-12 {
		s.dist[v] = nd
		s.prev[v] = u
		s.heap.push(v, nd)
	}
}

// relaxRow is relax over point u's edges to centers j0, j0+1, … at the
// costs in row. The n·k point → center edges are the solver's hot loop, so
// it walks one contiguous cost row in step with the centers' potentials
// and distances.
func (s *mcfSolver) relaxRow(u int, d float64, row []float64, j0 int) {
	c0 := s.n + 1 + j0
	pot, dist, pu := s.pot[c0:][:len(row)], s.dist[c0:][:len(row)], s.pot[u]
	for j, c := range row {
		if nd := d + c + pu - pot[j]; nd < dist[j]-1e-12 {
			dist[j] = nd
			s.prev[c0+j] = u
			s.heap.push(c0+j, nd)
		}
	}
}

// augment adds every finite distance to the potentials and sends one unit
// along the shortest path to the sink. Walking back from the sink, the
// path alternates center ← point ← center … ← point ← source: each point
// joins the center after it and leaves the center before it. So the last
// center gains a member and every other center on the path keeps its load;
// a center drops a member before it gains one, so its slots never
// overflow.
func (s *mcfSolver) augment() {
	for v, d := range s.dist {
		if !math.IsInf(d, 1) {
			s.pot[v] += d
		}
	}
	c0 := s.n + 1
	for c := s.prev[s.n+s.k+1]; c != 0; {
		p := s.prev[c]
		s.insert(c-c0, p-1)
		if c = s.prev[p]; c != 0 {
			s.remove(c-c0, p-1)
		}
	}
}

// members returns center j's members in ascending point order.
func (s *mcfSolver) members(j int) []int {
	return s.mem[j*s.slots:][:s.load[j]]
}

// insert routes point i to center j, keeping j's members ascending.
func (s *mcfSolver) insert(j, i int) {
	m := s.mem[j*s.slots:][:s.load[j]+1]
	x := len(m) - 1
	for ; x > 0 && m[x-1] > i; x-- {
		m[x] = m[x-1]
	}
	m[x] = i
	s.load[j]++
	s.assign[i] = j
}

// remove takes point i out of center j's members; the caller routes it on.
func (s *mcfSolver) remove(j, i int) {
	m := s.members(j)
	x := 0
	for m[x] != i {
		x++
	}
	copy(m[x:], m[x+1:])
	s.load[j]--
}

// mcfHeap is a binary min-heap of (node, distance) entries on strict <. Its
// sifts make container/heap's comparisons and leave its array, moving a
// hole instead of swapping, so equal distances pop in the same order.
type mcfHeap []mcfItem

type mcfItem struct {
	v int
	d float64
}

func (h *mcfHeap) push(v int, d float64) {
	q := append(*h, mcfItem{})
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(d < q[i].d) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = mcfItem{v, d}
	*h = q
}

// pop removes and returns the top entry. The last entry sifts down from
// the root through the first n = len−1 slots; with n = 0 it lands in the
// vacated slot, which the shrink then drops.
func (h *mcfHeap) pop() (int, float64) {
	q := *h
	top, n := q[0], len(q)-1
	x, i := q[n], 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && q[j+1].d < q[j].d {
			j++
		}
		if !(q[j].d < x.d) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = x
	*h = q[:n]
	return top.v, top.d
}
