package partition

import (
	"math"
	"slices"

	"sllt/internal/geom"
	"sllt/internal/obs"
)

// assignMCF solves the capacitated assignment exactly as a min-cost
// max-flow: source → point (cap 1) → center (cap 1, cost pairCosts) → sink
// (cap = cluster capacity). A point the flow cannot route (cap·k < n)
// falls to center 0.
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

// mcfCost is an assignment cost: d, the Manhattan distance in nm, then t,
// a tie-break that only decides between assignments of equal total d.
// Costs compare lexicographically and add component by component, so
// path costs are exact. Two assignments tie only if their t sums are
// equal, which the hash in t makes vanishingly unlikely: the optimum is
// unique, and any exact solver returns it.
type mcfCost struct{ d, t int64 }

// mcfInf stands for a distance not reached yet.
var mcfInf = mcfCost{math.MaxInt64, math.MaxInt64}

func (a mcfCost) add(b mcfCost) mcfCost { return mcfCost{a.d + b.d, a.t + b.t} }
func (a mcfCost) sub(b mcfCost) mcfCost { return mcfCost{a.d - b.d, a.t - b.t} }
func (a mcfCost) less(b mcfCost) bool   { return a.d < b.d || a.d == b.d && a.t < b.t }

// pairCosts fills cost, n×k row-major, with point i's cost at center j:
//
//	d = round(|p_i − c_j|₁ · 1000), the paper's assignment cost in nm;
//	t = e<<32 | splitmix64(i·k + j)>>32, with
//	e = ⌊|p_i − c_j|₂² / maxE2 · (2²⁰ − 1)⌋ and maxE2 the level's largest
//	    squared Euclidean distance (e = 0 when it is 0).
//
// Manhattan assignment is massively degenerate: two points on the same
// side of two centers in both axes swap between them at no cost. Squared
// Euclidean distance, the objective k-means placed the centers by, picks
// the compact member of each such family; the hash only separates what is
// left, such as coincident points.
//
// Bounds: with coordinates within 10 m, d < 2·10¹⁰ < 2³⁵; e < 2²⁰, so
// t < 2⁵². A shortest path crosses at most k+1 edges of the center graph
// (source → center, center → center, center → sink), each worth at most
// two pair costs of opposite sign, and BalancedAssignK's n·k ≤ 200 000
// gate with k ≤ n keeps k+1 ≤ 448 < 2⁹. So distances and potentials stay
// below 2⁶¹ in magnitude and every sum in the solver below 2⁶², far from
// int64 overflow.
func pairCosts(pts, centers []geom.Point, cost []mcfCost) {
	k := len(centers)
	var maxE2 float64
	for _, p := range pts {
		for _, c := range centers {
			maxE2 = max(maxE2, sqDist(p, c))
		}
	}
	for i, p := range pts {
		row := cost[i*k:][:k]
		for j, c := range centers {
			var e int64
			if maxE2 > 0 {
				e = int64(sqDist(p, c) / maxE2 * (1<<20 - 1))
			}
			h := int64(splitmix64(uint64(i*k+j)) >> 32)
			row[j] = mcfCost{int64(math.Round(p.Dist(c) * 1000)), e<<32 | h}
		}
	}
}

// sqDist is the squared Euclidean distance. The float64 conversions round
// each square, so no platform fuses the sum into a multiply-add.
func sqDist(p, c geom.Point) float64 {
	dx, dy := p.X-c.X, p.Y-c.Y
	return float64(dx*dx) + float64(dy*dy)
}

// splitmix64 is the reference SplitMix64 output function.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// mcfSolver runs successive shortest paths on the residual graph
// condensed to the k centers and the sink. Every unit of flow runs source
// → point → center → sink, so the flow is the assignment, and the points
// stay implicit: a residual path enters the centers from the source
// through an unrouted point and moves between centers through routed
// ones. Its edges are
//
//   - source → center j: the cheapest unrouted point's cost at j, read at
//     a cursor into j's cost-sorted point order;
//   - center a → center b: the least cost(i,b) − cost(i,a) over a's
//     members i, and the member that achieves it, kept in a k×k matrix
//     whose row a is refreshed whenever a's members change;
//   - center j → sink: cost 0 while load[j] < cap.
//
// Each Dijkstra is dense O(k²) on Johnson potentials; the per-point work
// is the presort, once per solver, and the row refreshes along each path.
type mcfSolver struct {
	n, k, cap int
	cost      []mcfCost // n×k row-major: cost[i*k+j] is point i's cost at center j
	order     []int32   // k×n: order[j*n:][:n] is the points by ascending cost at j
	next      []int     // per center: its order's cursor; only routed points lie before it
	assign    []int     // per point: its center, -1 while unrouted
	load      []int     // per center: its member count
	slots     int       // member slots per center: min(cap, n)
	mem       []int32   // center j's members: mem[j*slots:][:load[j]]
	move      []mcfCost // k×k: move[a*k+b] is the least cost of moving a member of a to b
	mover     []int32   // k×k: the member of a that achieves move[a*k+b]
	dist      []mcfCost // per center, then the sink: reduced distance from the source
	pot       []mcfCost // per center, then the sink: Johnson potential
	prev      []int     // per center, then the sink: predecessor center, -1 for the source
	done      []bool    // per center, then the sink: settled
}

func newMCFSolver(pts []geom.Point, centers []geom.Point, cap int) *mcfSolver {
	n, k := len(pts), len(centers)
	s := &mcfSolver{
		n: n, k: k, cap: cap,
		cost:   make([]mcfCost, n*k),
		order:  make([]int32, k*n),
		next:   make([]int, k),
		assign: make([]int, n),
		load:   make([]int, k),
		slots:  min(cap, n),
		move:   make([]mcfCost, k*k),
		mover:  make([]int32, k*k),
		dist:   make([]mcfCost, k+1),
		pot:    make([]mcfCost, k+1),
		prev:   make([]int, k+1),
		done:   make([]bool, k+1),
	}
	s.mem = make([]int32, k*s.slots)
	pairCosts(pts, centers, s.cost)
	// Sort each center's points by cost, equal costs by point index.
	type key struct {
		c mcfCost
		i int32
	}
	keys := make([]key, n)
	for j := range k {
		for i := range keys {
			keys[i] = key{s.cost[i*k+j], int32(i)}
		}
		slices.SortFunc(keys, func(a, b key) int {
			switch {
			case a.c.less(b.c):
				return -1
			case b.c.less(a.c):
				return 1
			}
			return int(a.i) - int(b.i)
		})
		o := s.order[j*n:][:n]
		for x, kv := range keys {
			o[x] = kv.i
		}
	}
	return s
}

// solve routes the points from an empty flow, one augmenting path per
// unit. Every center is reachable from the source while a point is
// unrouted, so the sink is out of reach exactly when every center is
// full: the flow stops after min(n, cap·k) units.
func (s *mcfSolver) solve(kern *obs.KernelCounters) {
	for i := range s.assign {
		s.assign[i] = -1
	}
	clear(s.load)
	clear(s.next)
	clear(s.pot)
	for range min(s.n, s.cap*s.k) {
		s.dijkstra()
		if kern != nil {
			kern.MCFAugments.Add(1)
		}
		s.augment()
	}
}

// dijkstra finds a shortest augmenting path over the centers, recording
// it in prev, and stops when the sink settles. It then adds
// min(dist, dist[sink]) to each potential, which keeps every residual
// edge's reduced cost non-negative after the augmentation. The sink must
// be reachable: some center has load < cap.
func (s *mcfSolver) dijkstra() {
	n, k := s.n, s.k
	for j := range k {
		o, x := s.order[j*n:][:n], s.next[j]
		for s.assign[o[x]] >= 0 {
			x++
		}
		s.next[j] = x
		s.dist[j] = s.cost[int(o[x])*k+j].sub(s.pot[j])
		s.prev[j] = -1
		s.done[j] = false
	}
	s.dist[k], s.done[k] = mcfInf, false
	for {
		u := -1
		for v, d := range s.dist {
			if !s.done[v] && (u < 0 || d.less(s.dist[u])) {
				u = v
			}
		}
		s.done[u] = true
		if u == k {
			break
		}
		// base is u's distance on the original costs, so each relaxation
		// adds one edge cost and subtracts one potential.
		base := s.dist[u].add(s.pot[u])
		if s.load[u] > 0 {
			for v, c := range s.move[u*k:][:k] {
				if nd := base.add(c).sub(s.pot[v]); !s.done[v] && nd.less(s.dist[v]) {
					s.dist[v], s.prev[v] = nd, u
				}
			}
		}
		if nd := base.sub(s.pot[k]); s.load[u] < s.cap && nd.less(s.dist[k]) {
			s.dist[k], s.prev[k] = nd, u
		}
	}
	dk := s.dist[k]
	for v, d := range s.dist {
		if dk.less(d) {
			d = dk
		}
		s.pot[v] = s.pot[v].add(d)
	}
}

// augment sends one unit along dijkstra's path. Walking back from the
// sink, each center takes in a point: from its predecessor center, which
// gives up the member its move entry names, or, for the first center, the
// unrouted point at its cursor. A center on the path passes its member on
// before it takes one in, so its slots never overflow, and its move row is
// read before it is refreshed.
func (s *mcfSolver) augment() {
	v := s.prev[s.k]
	for {
		u := s.prev[v]
		var i int32
		if u < 0 {
			i = s.order[v*s.n+s.next[v]]
		} else {
			i = s.mover[u*s.k+v]
			s.remove(u, i)
		}
		s.mem[v*s.slots+s.load[v]] = i
		s.load[v]++
		s.assign[i] = v
		s.refresh(v)
		if u < 0 {
			return
		}
		v = u
	}
}

// refresh recomputes center a's row of move and mover from its members,
// one contiguous cost row per member. The entry for a itself is never
// read: a has settled before its row relaxes.
func (s *mcfSolver) refresh(a int) {
	k := s.k
	move, mover := s.move[a*k:][:k], s.mover[a*k:][:k]
	for x, i := range s.members(a) {
		row := s.cost[int(i)*k:][:k]
		ca := row[a]
		for b, c := range row {
			if d := c.sub(ca); x == 0 || d.less(move[b]) {
				move[b], mover[b] = d, i
			}
		}
	}
}

// members returns center j's members.
func (s *mcfSolver) members(j int) []int32 {
	return s.mem[j*s.slots:][:s.load[j]]
}

// remove takes point i out of center j's members; the caller routes it on.
func (s *mcfSolver) remove(j int, i int32) {
	m := s.members(j)
	x := slices.Index(m, i)
	m[x] = m[len(m)-1]
	s.load[j]--
}
