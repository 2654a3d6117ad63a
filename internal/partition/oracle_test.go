package partition

import (
	"container/heap"
	"math"
	"math/rand"
	"sort"
	"testing"

	"sllt/internal/geom"
)

// oracleCost is the annealing cost recomputed from every cluster's members
// in one pass: the full recompute that saState.Cost replaces with cached
// terms and running sums.
func oracleCost(st *saState) float64 {
	k := len(st.clusters)
	capV := make([]float64, 0, k)
	tV := make([]float64, 0, k)
	var viol float64
	for j := range st.clusters {
		if len(st.clusters[j].members) == 0 {
			continue
		}
		nc := st.netCap(j)
		capV = append(capV, nc)
		tV = append(tV, st.netDelayProxy(j))
		if nc > st.opt.MaxCap {
			viol += nc - st.opt.MaxCap
		}
		if wl := st.netWL(j); wl > st.opt.MaxWL {
			viol += st.opt.CPerUm * (wl - st.opt.MaxWL)
		}
		if st.opt.MaxFanout > 0 && len(st.clusters[j].members) > st.opt.MaxFanout {
			viol += float64(len(st.clusters[j].members)-st.opt.MaxFanout) * 2
		}
	}
	return variance(capV) + variance(tV) + 4*viol
}

func variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	return v / float64(len(xs))
}

// oraclePerNetCost is net j's unsquared sampling weight, recomputed.
func oraclePerNetCost(st *saState, j int) float64 {
	c := st.clusters[j]
	if len(c.members) == 0 {
		return 0
	}
	cost := st.netCap(j) + st.opt.CPerUm*st.netWL(j)
	if nc := st.netCap(j); nc > st.opt.MaxCap {
		cost += 4 * (nc - st.opt.MaxCap)
	}
	return cost
}

// oraclePickCostlyNet draws a net from freshly recomputed weights.
func oraclePickCostlyNet(st *saState, rng *rand.Rand) int {
	var total float64
	costs := make([]float64, len(st.clusters))
	for j := range st.clusters {
		c := oraclePerNetCost(st, j)
		costs[j] = c * c
		total += costs[j]
	}
	if total <= 0 {
		return -1
	}
	r := rng.Float64() * total
	for j, c := range costs {
		r -= c
		if r <= 0 {
			return j
		}
	}
	return len(st.clusters) - 1
}

// oracleGreedyRepair is the greedy assignment without caches: an ascending
// scan over all centers per point, and per overflow unit a rescan of every
// point for the cluster's members and of every center for their targets.
func oracleGreedyRepair(pts []geom.Point, centers []geom.Point, cap int) []int {
	n, k := len(pts), len(centers)
	assign := make([]int, n)
	load := make([]int, k)
	for i, p := range pts {
		best, bd := 0, math.Inf(1)
		for j, c := range centers {
			if d := p.Dist(c); d < bd {
				best, bd = j, d
			}
		}
		assign[i] = best
		load[best]++
	}
	for j := 0; j < k; j++ {
		for load[j] > cap {
			type cand struct {
				idx    int
				regret float64
				to     int
			}
			var cands []cand
			for i, p := range pts {
				if assign[i] != j {
					continue
				}
				bestTo, bd := -1, math.Inf(1)
				for jj, c := range centers {
					if jj == j || load[jj] >= cap {
						continue
					}
					if d := p.Dist(c); d < bd {
						bestTo, bd = jj, d
					}
				}
				if bestTo >= 0 {
					cands = append(cands, cand{i, bd - p.Dist(centers[j]), bestTo})
				}
			}
			if len(cands) == 0 {
				break
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].regret < cands[b].regret })
			move := cands[0]
			assign[move.idx] = move.to
			load[j]--
			load[move.to]++
		}
	}
	return assign
}

// oracleAssignMCF is the assignment's min-cost flow on an explicit residual
// edge list with a container/heap queue: the generic solver that mcfSolver
// replaces, which relaxes the same edges in the same order.
func oracleAssignMCF(pts []geom.Point, centers []geom.Point, cap int) []int {
	n, k := len(pts), len(centers)
	// Node ids: 0 = source, 1..n = points, n+1..n+k = centers, n+k+1 = sink.
	src, snk := 0, n+k+1
	g := newFlowGraph(n + k + 2)
	for i, p := range pts {
		g.addEdge(src, 1+i, 1, 0)
		for j, c := range centers {
			g.addEdge(1+i, 1+n+j, 1, p.Dist(c))
		}
	}
	for j := 0; j < k; j++ {
		g.addEdge(1+n+j, snk, cap, 0)
	}
	g.minCostFlow(src, snk, n)

	assign := make([]int, n)
	for i := 0; i < n; i++ {
		assign[i] = 0
		for _, eid := range g.adj[1+i] {
			e := &g.edges[eid]
			if e.to >= 1+n && e.to <= n+k && e.cap == 0 {
				assign[i] = e.to - 1 - n
				break
			}
		}
	}
	return assign
}

// flowGraph is a residual-edge min-cost max-flow structure.
type flowGraph struct {
	adj   [][]int // node -> edge ids
	edges []flowEdge
	pot   []float64 // Johnson potentials
}

type flowEdge struct {
	to   int
	cap  int
	cost float64
}

func newFlowGraph(nodes int) *flowGraph {
	return &flowGraph{adj: make([][]int, nodes), pot: make([]float64, nodes)}
}

// addEdge inserts a directed edge and its zero-capacity reverse.
func (g *flowGraph) addEdge(from, to, cap int, cost float64) {
	g.adj[from] = append(g.adj[from], len(g.edges))
	g.edges = append(g.edges, flowEdge{to: to, cap: cap, cost: cost})
	g.adj[to] = append(g.adj[to], len(g.edges))
	g.edges = append(g.edges, flowEdge{to: from, cap: 0, cost: -cost})
}

// minCostFlow pushes up to want units from src to snk along successive
// shortest paths.
func (g *flowGraph) minCostFlow(src, snk, want int) {
	sent := 0
	dist := make([]float64, len(g.adj))
	prevEdge := make([]int, len(g.adj))
	for sent < want {
		// Dijkstra on reduced costs.
		for i := range dist {
			dist[i] = math.Inf(1)
			prevEdge[i] = -1
		}
		dist[src] = 0
		pq := &nodePQ{{src, 0}}
		for pq.Len() > 0 {
			it := heap.Pop(pq).(nodeItem)
			if it.d > dist[it.n] {
				continue
			}
			for _, eid := range g.adj[it.n] {
				e := &g.edges[eid]
				if e.cap <= 0 {
					continue
				}
				nd := it.d + e.cost + g.pot[it.n] - g.pot[e.to]
				if nd < dist[e.to]-1e-12 {
					dist[e.to] = nd
					prevEdge[e.to] = eid
					heap.Push(pq, nodeItem{e.to, nd})
				}
			}
		}
		if math.IsInf(dist[snk], 1) {
			break // saturated
		}
		for i := range g.pot {
			if !math.IsInf(dist[i], 1) {
				g.pot[i] += dist[i]
			}
		}
		// Augment one unit (all path capacities here are >= 1 and the
		// bottleneck source edge has capacity 1).
		aug := math.MaxInt32
		for v := snk; v != src; {
			e := &g.edges[prevEdge[v]]
			if e.cap < aug {
				aug = e.cap
			}
			v = g.edges[prevEdge[v]^1].to
		}
		for v := snk; v != src; {
			eid := prevEdge[v]
			g.edges[eid].cap -= aug
			g.edges[eid^1].cap += aug
			v = g.edges[eid^1].to
		}
		sent += aug
	}
}

type nodeItem struct {
	n int
	d float64
}

type nodePQ []nodeItem

func (q nodePQ) Len() int            { return len(q) }
func (q nodePQ) Less(i, j int) bool  { return q[i].d < q[j].d }
func (q nodePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodePQ) Push(x interface{}) { *q = append(*q, x.(nodeItem)) }
func (q *nodePQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// checkSAState compares the incremental cost, every per-net weight and a
// net draw against the oracles under ==, and counts the clusters whose
// cap, WL and fanout violation terms are positive.
func checkSAState(t *testing.T, st *saState, step string, seed int64, fired *[3]int) {
	t.Helper()
	if got, want := st.Cost(), oracleCost(st); got != want {
		t.Fatalf("%s: Cost %v, oracle %v", step, got, want)
	}
	for j := range st.clusters {
		w := oraclePerNetCost(st, j)
		if got := st.terms[j].sq; got != w*w {
			t.Fatalf("%s: net %d weight %v, oracle %v", step, j, got, w*w)
		}
		for v, x := range st.terms[j].viol {
			if x > 0 {
				fired[v]++
			}
		}
	}
	got := st.pickCostlyNet(rand.New(rand.NewSource(seed)))
	if want := oraclePickCostlyNet(st, rand.New(rand.NewSource(seed))); got != want {
		t.Fatalf("%s: picked net %d, oracle %d", step, got, want)
	}
}

// TestSAIncrementalMatchesOracle drives the annealer's moves and undos on
// random instances on both sides of saGridThreshold and checks, after each,
// that the cached terms and running sums give exactly the full recompute's
// cost, per-net weights and net draw. The last cluster starts (and, since
// no move targets a net without members, stays) empty, and the constraints
// are tight enough that all three violation kinds fire.
func TestSAIncrementalMatchesOracle(t *testing.T) {
	for _, n := range []int{300, saGridThreshold + 200} {
		rng := rand.New(rand.NewSource(int64(n)))
		pts := fastpathPts(n, rng, false)
		caps := make([]float64, n)
		for i := range caps {
			caps[i] = 0.5 + rng.Float64()
		}
		k := n/24 + 2
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k - 1)
		}
		opt := DefaultSAOptions(1)
		opt.MaxCap, opt.MaxWL, opt.MaxFanout = 45, 300, 26
		st := newSAState(pts, caps, k, assign, opt)
		if got := st.grid != nil; got != (n >= saGridThreshold) {
			t.Fatalf("n=%d: grid built %v", n, got)
		}
		var fired [3]int
		checkSAState(t, st, "initial", 0, &fired)
		for it := range 600 {
			j := st.pickCostlyNet(rng)
			i := st.pickHullInstance(j, rng)
			if i < 0 {
				continue
			}
			to := st.nearestOtherNet(i, j)
			if to < 0 {
				continue
			}
			st.move(i, j, to)
			checkSAState(t, st, "move", int64(it), &fired)
			if rng.Intn(2) == 0 {
				st.move(i, to, j)
				checkSAState(t, st, "undo", int64(it), &fired)
			}
		}
		for v, c := range fired {
			if c == 0 {
				t.Errorf("n=%d: violation term %d never fired", n, v)
			}
		}
	}
}

// TestGreedyRepairMatchesOracle compares the cached greedy assignment,
// which queries a center grid at every size, with the rescanning oracle.
// The sizes have n·k > 200 000 (the greedy side of BalancedAssignK) and lie
// on both sides of the gates below which k-means' assignment pass scans
// instead; the inputs are random floats and small integer grids, where
// distance and regret ties are common.
func TestGreedyRepairMatchesOracle(t *testing.T) {
	cases := []struct{ n, k int }{
		{1800, 120},                   // n < minParallelPoints
		{10_100, 20},                  // k < assignGridMinCenters
		{minParallelPoints + 100, 98}, // above both
	}
	for _, c := range cases {
		if c.n*c.k <= 200_000 {
			t.Fatalf("n=%d k=%d is on the min-cost-flow side", c.n, c.k)
		}
		for _, integer := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(c.n + c.k)))
			pts := fastpathPts(c.n, rng, integer)
			centers := fastpathPts(c.k, rng, integer)
			for _, cap := range []int{(c.n + c.k - 1) / c.k, c.n/c.k + 3} {
				got, method := BalancedAssignK(pts, centers, cap, nil)
				if method != "greedy" {
					t.Fatalf("n=%d k=%d: solver %q, want greedy", c.n, c.k, method)
				}
				want := oracleGreedyRepair(pts, centers, cap)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("n=%d k=%d integer=%v cap=%d: assign[%d]=%d, oracle %d",
							c.n, c.k, integer, cap, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// gridPts returns n points on the integer w×w grid, where exact distance
// ties are common.
func gridPts(n, w int, rng *rand.Rand) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(rng.Intn(w)), float64(rng.Intn(w)))
	}
	return pts
}

// TestMCFMatchesOracle compares assignMCF with the edge-list solver element
// for element on 300 instances: random floats at two scales, small integer
// grids full of distance ties, saturated capacities (cap·k < n, where the
// unrouted points fall to center 0), a single center, fewer points than
// centers, and stacks of coincident points and centers.
func TestMCFMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := range 300 {
		n, k := 2+rng.Intn(60), 1+rng.Intn(10)
		var pts, centers []geom.Point
		kind := [...]string{"float", "grid", "saturated", "k=1", "n<k", "coincident"}[trial%6]
		switch kind {
		case "float":
			if trial%12 == 0 {
				n, k = 150+rng.Intn(100), 8+rng.Intn(8)
			}
			pts, centers = fastpathPts(n, rng, false), fastpathPts(k, rng, false)
		case "grid", "saturated":
			pts, centers = gridPts(n, 3+rng.Intn(6), rng), gridPts(k, 3+rng.Intn(6), rng)
		case "k=1":
			k = 1
			pts, centers = gridPts(n, 5, rng), gridPts(k, 5, rng)
		case "n<k":
			k = 3 + rng.Intn(10)
			n = 1 + rng.Intn(k-1)
			pts, centers = gridPts(n, 4, rng), gridPts(k, 4, rng)
		case "coincident":
			spots := gridPts(1+rng.Intn(3), 10, rng)
			pts, centers = make([]geom.Point, n), make([]geom.Point, k)
			for i := range pts {
				pts[i] = spots[rng.Intn(len(spots))]
			}
			for j := range centers {
				centers[j] = spots[rng.Intn(len(spots))]
			}
		}
		cap := (n+k-1)/k + rng.Intn(3)
		if kind == "saturated" {
			cap = (n - 1) / k
		}
		got := assignMCF(pts, centers, cap, nil)
		want := oracleAssignMCF(pts, centers, cap)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%s, n=%d k=%d cap=%d): assign[%d]=%d, oracle %d",
					trial, kind, n, k, cap, i, got[i], want[i])
			}
		}
	}
}
