package partition

import (
	"container/heap"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sllt/internal/geom"
)

// oracleFloatCost is the annealing cost over float terms, recomputed from
// every cluster's members in one pass: the cost before the terms were
// quantized. It also returns its two variances.
func oracleFloatCost(st *saState) (cost, capVar, delayVar float64) {
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
	capVar, delayVar = variance(capV), variance(tV)
	return capVar + delayVar + 4*viol, capVar, delayVar
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

// oracleTerms recomputes cluster j's quantized terms from its members and
// reports which of its cap, WL and fanout violations are positive.
func oracleTerms(st *saState, j int) (netTerms, [3]bool) {
	n := len(st.clusters[j].members)
	if n == 0 {
		return netTerms{}, [3]bool{}
	}
	nc, wl := st.netCap(j), st.netWL(j)
	cost := nc + st.opt.CPerUm*wl
	var viol [3]float64
	if nc > st.opt.MaxCap {
		viol[0] = nc - st.opt.MaxCap
		cost += 4 * (nc - st.opt.MaxCap)
	}
	if wl > st.opt.MaxWL {
		viol[1] = st.opt.CPerUm * (wl - st.opt.MaxWL)
	}
	if st.opt.MaxFanout > 0 && n > st.opt.MaxFanout {
		viol[2] = float64(n-st.opt.MaxFanout) * 2
	}
	return netTerms{
		size:  n,
		cap:   int64(math.Round(nc * saQuantum)),
		delay: int64(math.Round(st.netDelayProxy(j) * saQuantum)),
		viol:  int64(math.Round((viol[0] + viol[1] + viol[2]) * saQuantum)),
		w:     min(uint64(math.Round(cost*cost*256)), math.MaxUint64/uint64(len(st.clusters))),
	}, [3]bool{viol[0] > 0, viol[1] > 0, viol[2] > 0}
}

// oracleSA is the annealer's integer state recomputed from every
// cluster's members: the terms, and their sums in big integers, which
// cannot overflow.
type oracleSA struct {
	terms                                []netTerms
	fired                                [3]int // clusters with each violation
	used                                 int
	sumCap, sumCap2, sumDelay, sumDelay2 big.Int
	sumViol, sumW                        big.Int
}

func newOracleSA(st *saState) *oracleSA {
	o := &oracleSA{terms: make([]netTerms, len(st.clusters))}
	var q big.Int
	for j := range st.clusters {
		t, fired := oracleTerms(st, j)
		o.terms[j] = t
		if t.size > 0 {
			o.used++
		}
		for v, f := range fired {
			if f {
				o.fired[v]++
			}
		}
		o.sumCap.Add(&o.sumCap, q.SetInt64(t.cap))
		o.sumCap2.Add(&o.sumCap2, q.Mul(&q, &q))
		o.sumDelay.Add(&o.sumDelay, q.SetInt64(t.delay))
		o.sumDelay2.Add(&o.sumDelay2, q.Mul(&q, &q))
		o.sumViol.Add(&o.sumViol, q.SetInt64(t.viol))
		o.sumW.Add(&o.sumW, q.SetUint64(t.w))
	}
	return o
}

// bigU128 returns x as a big integer.
func bigU128(x u128) *big.Int {
	b := new(big.Int).SetUint64(x.hi)
	return b.Lsh(b, 64).Or(b, new(big.Int).SetUint64(x.lo))
}

// bigSpread is spread over big integers: n·x2 − x1², converted to float64
// from its high and low 64-bit halves. It fails if the numerator is
// negative or does not fit 128 bits.
func bigSpread(t *testing.T, n int, x1, x2 *big.Int) float64 {
	t.Helper()
	d := new(big.Int).Mul(big.NewInt(int64(n)), x2)
	d.Sub(d, new(big.Int).Mul(x1, x1))
	if d.Sign() < 0 || d.BitLen() > 128 {
		t.Fatalf("variance numerator %v outside [0, 2^128)", d)
	}
	lo := new(big.Int).And(d, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
	hi := new(big.Int).Rsh(d, 64).Uint64()
	return float64(hi)*0x1p64 + float64(lo)
}

// cost is Cost over the recomputed sums.
func (o *oracleSA) cost(t *testing.T) float64 {
	if o.used == 0 {
		return 0
	}
	nn := float64(o.used) * float64(o.used) * saQuantum * saQuantum
	return bigSpread(t, o.used, &o.sumCap, &o.sumCap2)/nn +
		bigSpread(t, o.used, &o.sumDelay, &o.sumDelay2)/nn +
		4*float64(o.sumViol.Int64())/saQuantum
}

// draw is pickCostlyNet over the recomputed weights: the same r from the
// same rng, then a linear scan of the prefix sums.
func (o *oracleSA) draw(rng *rand.Rand) int {
	w := o.sumW.Uint64()
	if w == 0 {
		return -1
	}
	r := min(uint64(rng.Float64()*float64(w)), w-1)
	for j, t := range o.terms {
		if r < t.w {
			return j
		}
		r -= t.w
	}
	return -1
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
// edge list over pairCosts, with a container/heap queue: successive
// shortest paths, each a full Dijkstra on reduced costs with no margin.
// The optimum is unique, so it must return what mcfSolver returns.
func oracleAssignMCF(pts []geom.Point, centers []geom.Point, cap int) []int {
	n, k := len(pts), len(centers)
	cost := make([]mcfCost, n*k)
	pairCosts(pts, centers, cost)
	// Node ids: 0 = source, 1..n = points, n+1..n+k = centers, n+k+1 = sink.
	src, snk := 0, n+k+1
	g := &pairGraph{adj: make([][]int, n+k+2), pot: make([]mcfCost, n+k+2)}
	for i := range n {
		g.addEdge(src, 1+i, 1, mcfCost{})
		for j := range k {
			g.addEdge(1+i, 1+n+j, 1, cost[i*k+j])
		}
	}
	for j := range k {
		g.addEdge(1+n+j, snk, cap, mcfCost{})
	}
	g.minCostFlow(src, snk)
	return g.assignment(n, k)
}

// pairGraph is a residual-edge min-cost max-flow structure over pair
// costs.
type pairGraph struct {
	adj   [][]int // node -> edge ids
	edges []pairEdge
	pot   []mcfCost // Johnson potentials
}

type pairEdge struct {
	to, cap int
	cost    mcfCost
}

// addEdge inserts a directed edge and its zero-capacity reverse.
func (g *pairGraph) addEdge(from, to, cap int, cost mcfCost) {
	g.adj[from] = append(g.adj[from], len(g.edges))
	g.edges = append(g.edges, pairEdge{to: to, cap: cap, cost: cost})
	g.adj[to] = append(g.adj[to], len(g.edges))
	g.edges = append(g.edges, pairEdge{to: from, cost: mcfCost{}.sub(cost)})
}

// minCostFlow pushes unit after unit along shortest paths until the sink
// is out of reach.
func (g *pairGraph) minCostFlow(src, snk int) {
	dist := make([]mcfCost, len(g.adj))
	prevEdge := make([]int, len(g.adj))
	for {
		for i := range dist {
			dist[i] = mcfInf
			prevEdge[i] = -1
		}
		dist[src] = mcfCost{}
		pq := &pairPQ{{src, mcfCost{}}}
		for pq.Len() > 0 {
			it := pq.pop()
			if dist[it.n].less(it.d) {
				continue
			}
			for _, eid := range g.adj[it.n] {
				e := &g.edges[eid]
				if e.cap <= 0 {
					continue
				}
				if nd := it.d.add(e.cost).add(g.pot[it.n]).sub(g.pot[e.to]); nd.less(dist[e.to]) {
					dist[e.to] = nd
					prevEdge[e.to] = eid
					pq.push(pairItem{e.to, nd})
				}
			}
		}
		if dist[snk] == mcfInf {
			return // saturated
		}
		for i := range g.pot {
			if dist[i] != mcfInf {
				g.pot[i] = g.pot[i].add(dist[i])
			}
		}
		for v := snk; v != src; {
			eid := prevEdge[v]
			g.edges[eid].cap--
			g.edges[eid^1].cap++
			v = g.edges[eid^1].to
		}
	}
}

// assignment reads each point's center off its saturated edge; an
// unrouted point falls to center 0.
func (g *pairGraph) assignment(n, k int) []int {
	assign := make([]int, n)
	for i := range n {
		for _, eid := range g.adj[1+i] {
			if e := g.edges[eid]; e.to > n && e.to <= n+k && e.cap == 0 && eid%2 == 0 {
				assign[i] = e.to - 1 - n
				break
			}
		}
	}
	return assign
}

type pairItem struct {
	n int
	d mcfCost
}

// pairPQ is a binary min-heap of pairItems. It is typed rather than a
// container/heap, whose interface boxing allocates on every push.
type pairPQ []pairItem

func (q pairPQ) Len() int { return len(q) }

func (q *pairPQ) push(it pairItem) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].d.less(h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*q = h
}

func (q *pairPQ) pop() pairItem {
	h := *q
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j+1 < n && h[j+1].d.less(h[j].d) {
			j++
		}
		if !h[j].d.less(h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*q = h
	return top
}

// oracleFloatMCF is the float solver the integer one replaced: the same
// edge-list min-cost flow over the Manhattan distances in µm, with the
// 1e-12 margin its float potentials needed. At 3 mm scale the potentials'
// rounding error outgrows that margin and the solver can run forever, so
// it gives up after maxPops heap pops and reports whether it finished.
func oracleFloatMCF(pts []geom.Point, centers []geom.Point, cap, maxPops int) ([]int, bool) {
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
	if !g.minCostFlow(src, snk, n, maxPops) {
		return nil, false
	}

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
	return assign, true
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
// shortest paths. It reports false if the Dijkstra runs took more than
// maxPops heap pops in total.
func (g *flowGraph) minCostFlow(src, snk, want, maxPops int) bool {
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
			if maxPops--; maxPops < 0 {
				return false
			}
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
	return true
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

// checkSAState compares the incremental state with the integer full
// recompute under ==: every cluster's terms, the sums, Cost, the Fenwick
// draw at both ends of every net's span and a seeded pickCostlyNet. Cost
// must also lie within the quantization bound of the float cost. It
// returns the recompute.
func checkSAState(t *testing.T, st *saState, step string, seed int64) *oracleSA {
	t.Helper()
	o := newOracleSA(st)
	for j := range st.terms {
		if st.terms[j] != o.terms[j] {
			t.Fatalf("%s: net %d terms %+v, oracle %+v", step, j, st.terms[j], o.terms[j])
		}
	}
	if st.used != o.used {
		t.Fatalf("%s: %d nets used, oracle %d", step, st.used, o.used)
	}
	for _, c := range []struct {
		name      string
		got, want *big.Int
	}{
		{"cap sum", big.NewInt(st.sumCap), &o.sumCap},
		{"cap² sum", bigU128(st.sumCap2), &o.sumCap2},
		{"delay sum", big.NewInt(st.sumDelay), &o.sumDelay},
		{"delay² sum", bigU128(st.sumDelay2), &o.sumDelay2},
		{"violation sum", big.NewInt(st.sumViol), &o.sumViol},
		{"weight sum", new(big.Int).SetUint64(st.sumW), &o.sumW},
	} {
		if c.got.Cmp(c.want) != 0 {
			t.Fatalf("%s: %s %v, oracle %v", step, c.name, c.got, c.want)
		}
	}
	got := st.Cost()
	if want := o.cost(t); got != want {
		t.Fatalf("%s: Cost %v, oracle %v", step, got, want)
	}
	// Rounding a term to quanta moves it by at most δ, a variance by at
	// most 2δσ + δ² and the violation sum by at most δ per net.
	fc, capVar, delayVar := oracleFloatCost(st)
	const δ = 0.5 / saQuantum
	bound := 2*δ*(math.Sqrt(capVar)+math.Sqrt(delayVar)) + 2*δ*δ + 4*float64(o.used)*δ + 1e-9*(1+fc)
	if math.Abs(got-fc) > bound {
		t.Fatalf("%s: Cost %v, float oracle %v: off by more than %v", step, got, fc, bound)
	}
	var lo uint64 // Σ_{i<j} w_i
	for j, tj := range o.terms {
		if tj.w == 0 {
			continue
		}
		for _, r := range []uint64{lo, lo + tj.w - 1} {
			if got := st.netAt(r); got != j {
				t.Fatalf("%s: r=%d drew net %d, scan %d", step, r, got, j)
			}
		}
		lo += tj.w
	}
	if got, want := st.pickCostlyNet(rand.New(rand.NewSource(seed))), o.draw(rand.New(rand.NewSource(seed))); got != want {
		t.Fatalf("%s: picked net %d, scan %d", step, got, want)
	}
	return o
}

// annealSteps runs moves proposals the annealer's way (net draw, hull
// instance, nearest other net), undoing about half, and checks the state
// after each move and undo. It returns the clusters counted with each
// violation over those checks.
func annealSteps(t *testing.T, st *saState, rng *rand.Rand, moves int) (fired [3]int) {
	t.Helper()
	count := func(o *oracleSA) {
		for v, c := range o.fired {
			fired[v] += c
		}
	}
	count(checkSAState(t, st, "initial", 0))
	for it := range moves {
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
		count(checkSAState(t, st, "move", int64(it)))
		if rng.Intn(2) == 0 {
			st.move(i, to, j)
			count(checkSAState(t, st, "undo", int64(it)))
		}
	}
	return fired
}

// TestSAIncrementalMatchesOracle drives the annealer's moves and undos on
// random instances on both sides of saGridThreshold and checks, after each,
// that the incremental terms, sums and weight tree equal the integer full
// recompute. The last cluster starts (and, since no move targets a net
// without members, stays) empty, and the constraints are tight enough that
// all three violation kinds fire.
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
		for v, c := range annealSteps(t, st, rng, 600) {
			if c == 0 {
				t.Errorf("n=%d: violation term %d never fired", n, v)
			}
		}
	}
}

// TestSAExtremeInputs runs annealSteps where the integer sums come closest
// to their bounds: a 10 m die whose every cluster spans it, at k = 31,251
// (a 1M-sink level 0, where the weights saturate) and at k = 63; a level
// whose members all coincide, so that both variances start at exactly 0;
// and k = 64, a power of two, for the Fenwick descent's first step. Every
// state must equal the recompute, which cannot overflow. Pin caps are all
// 1 fF and each cluster starts with five members.
func TestSAExtremeInputs(t *testing.T) {
	const die = 1e7 // 10 m, in µm
	corners := []geom.Point{geom.Pt(0, 0), geom.Pt(die, 0), geom.Pt(0, die), geom.Pt(die, die)}
	// spanDie puts point i on a corner while i < 4k, so that each cluster's
	// first four members sit on the die's four corners, and the rest
	// anywhere on the die.
	spanDie := func(rng *rand.Rand, i, k int) geom.Point {
		if i < 4*k {
			return corners[i/k]
		}
		return geom.Pt(rng.Float64()*die, rng.Float64()*die)
	}
	for _, c := range []struct {
		name     string
		k, moves int
		// pts places point i, which starts in cluster i mod k.
		pts func(rng *rand.Rand, i, k int) geom.Point
		// saturates: some weight starts at its cap; flat: every cluster
		// starts alike, so Cost is exactly 0.
		saturates, flat bool
	}{
		{"10m-k31251", 31251, 12, spanDie, true, false},
		{"10m-k63", 63, 200, spanDie, false, false},
		{"coincident-k37", 37, 200, func(*rand.Rand, int, int) geom.Point {
			return geom.Pt(die/3, die/3)
		}, false, true},
		{"k64", 64, 200, func(rng *rand.Rand, _, _ int) geom.Point {
			return geom.Pt(rng.Float64()*400, rng.Float64()*400)
		}, false, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.k)))
			n := 5 * c.k
			pts, caps, assign := make([]geom.Point, n), make([]float64, n), make([]int, n)
			for i := range pts {
				pts[i], caps[i], assign[i] = c.pts(rng, i, c.k), 1, i%c.k
			}
			st := newSAState(pts, caps, c.k, assign, DefaultSAOptions(1))
			o := checkSAState(t, st, "initial", 0)
			saturated := 0
			for _, tj := range o.terms {
				if tj.w == st.wMax {
					saturated++
				}
			}
			if (saturated > 0) != c.saturates {
				t.Errorf("%d of %d weights saturated, want some: %v", saturated, c.k, c.saturates)
			}
			if got := st.Cost(); c.flat && got != 0 {
				t.Errorf("Cost of alike clusters %v, want 0", got)
			}
			annealSteps(t, st, rng, c.moves)
		})
	}
}

// hullPointClasses draw the point sets of TestHullMatchesConvexHull:
// uniform floats; an 8×8 integer grid, full of coincident points and
// collinear runs; a 4×4 grid of spacing 10 with each point offset by a
// multiple of 0.4·geom.Eps in x and y, so pairs and chains of points closer
// than Eps; and points on three lines.
var hullPointClasses = []func(rng *rand.Rand, n int) []geom.Point{
	func(rng *rand.Rand, n int) []geom.Point { return fastpathPts(n, rng, false) },
	func(rng *rand.Rand, n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(8)), float64(rng.Intn(8)))
		}
		return pts
	},
	func(rng *rand.Rand, n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			dx, dy := float64(rng.Intn(4))*0.4*geom.Eps, float64(rng.Intn(4))*0.4*geom.Eps
			pts[i] = geom.Pt(float64(rng.Intn(4))*10+dx, float64(rng.Intn(4))*10+dy)
		}
		return pts
	},
	func(rng *rand.Rand, n int) []geom.Point {
		pts := make([]geom.Point, n)
		for i := range pts {
			s := float64(rng.Intn(12))
			switch rng.Intn(3) {
			case 0:
				pts[i] = geom.Pt(s, 5)
			case 1:
				pts[i] = geom.Pt(3, s)
			default:
				pts[i] = geom.Pt(s, 2*s+1)
			}
		}
		return pts
	},
}

// TestHullMatchesConvexHull moves random instances between small clusters
// (0 to about 10 members) and, after each move, draws a hull instance from
// every cluster of two or more members, which rebuilds the hulls the move
// made stale. Each cluster's hull must then equal geom.ConvexHull of its
// member locations, taken in index order, element for element.
func TestHullMatchesConvexHull(t *testing.T) {
	const n, k = 60, 20
	caps := make([]float64, n)
	for class, gen := range hullPointClasses {
		rng := rand.New(rand.NewSource(int64(class)))
		pts := gen(rng, n)
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		st := newSAState(pts, caps, k, assign, DefaultSAOptions(1))
		sizes := map[int]bool{}
		for it := range 400 {
			i := rng.Intn(n)
			from, to := st.assign[i], rng.Intn(k-1)
			if to >= from {
				to++
			}
			st.move(i, from, to)
			for j, c := range st.clusters {
				if len(c.members) < 2 {
					continue
				}
				sizes[len(c.members)] = true
				st.pickHullInstance(j, rng)
				locs := make([]geom.Point, len(c.members))
				for v, m := range c.members {
					locs[v] = pts[m]
				}
				want := geom.ConvexHull(locs)
				if !slices.Equal(c.hull, want) {
					t.Fatalf("class %d, move %d, cluster %d %v: hull %v, geom.ConvexHull %v",
						class, it, j, locs, c.hull, want)
				}
			}
		}
		if !sizes[2] || !sizes[3] {
			t.Errorf("class %d: no cluster of two or three members was checked", class)
		}
	}
}

// oracleRefineSA is RefineSA with the best kept by copying the whole
// assignment at every new best, the way it was kept before the replay. It
// also returns the move of the last new best (-1 when the start stays
// best), how many accepted moves that best replayed (those since the best
// before it) and how many were accepted after it.
func oracleRefineSA(pts []geom.Point, caps []float64, k int, assign []int, opt SAOptions) (out []int, lastBest, replayed, after int) {
	lastBest = -1
	if opt.Iters <= 0 || k < 2 {
		return append([]int(nil), assign...), lastBest, 0, 0
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	st := newSAState(pts, caps, k, assign, opt)
	cur := st.Cost()
	best := cur
	bestAssign := append([]int(nil), st.assign...)
	temp := max(cur*0.05, 1e-6)
	cool := math.Pow(1e-3, 1/float64(opt.Iters))
	for it := 0; it < opt.Iters; it++ {
		j := st.pickCostlyNet(rng)
		if j < 0 {
			break
		}
		i := st.pickHullInstance(j, rng)
		if i < 0 {
			continue
		}
		to := st.nearestOtherNet(i, j)
		if to < 0 {
			continue
		}
		st.move(i, j, to)
		next := st.Cost()
		delta := next - cur
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			cur = next
			after++
			if cur < best {
				best = cur
				copy(bestAssign, st.assign)
				lastBest, replayed, after = it, after, 0
			}
		} else {
			st.move(i, to, j)
		}
		temp *= cool
	}
	return bestAssign, lastBest, replayed, after
}

// TestRefineSAMatchesCopyOracle compares RefineSA, which replays the moves
// accepted since the last best onto the best assignment, with
// oracleRefineSA, which copies the assignment at every new best, element
// for element. It covers three budgets: on a 300-point level, the smallest
// at which moves are accepted but the start stays best, and the smallest
// at which the last move is a new best reached over several accepted
// moves; and the flow's two moves per point on benchLevel's
// 100,000-point level (k = 3,126).
func TestRefineSAMatchesCopyOracle(t *testing.T) {
	check := func(name string, pts []geom.Point, caps []float64, k int, assign []int, opt SAOptions) (lastBest, replayed, after int) {
		t.Helper()
		want, lastBest, replayed, after := oracleRefineSA(pts, caps, k, assign, opt)
		got := RefineSA(pts, caps, k, assign, opt)
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%s (%d moves): RefineSA differs from the copying oracle first at index %d", name, opt.Iters, i)
		}
		return lastBest, replayed, after
	}

	rng := rand.New(rand.NewSource(9))
	pts := fastpathPts(300, rng, false)
	caps := make([]float64, len(pts))
	for i := range caps {
		caps[i] = 0.5 + rng.Float64()
	}
	centers, _ := KMeansPK(pts, len(pts)/32+1, 20, 1, 1, nil)
	assign, _ := BalancedAssignK(pts, centers, 32, nil)
	opt := DefaultSAOptions(3)
	found := [2]bool{}
	for opt.Iters = 1; opt.Iters <= 2000 && !(found[0] && found[1]); opt.Iters++ {
		lastBest, replayed, after := check("300 points", pts, caps, len(centers), assign, opt)
		switch {
		case !found[0] && lastBest < 0 && after > 0:
			found[0] = true
			t.Logf("%d moves: %d accepted, none a new best", opt.Iters, after)
		case !found[1] && lastBest == opt.Iters-1 && replayed > 1:
			found[1] = true
			t.Logf("%d moves: the last is a new best, replaying %d accepted moves", opt.Iters, replayed)
		}
	}
	if !found[0] || !found[1] {
		t.Fatalf("no budget up to %d moves where the best never improves (%v) or improves on the last move (%v)",
			opt.Iters-1, found[0], found[1])
	}

	pts, centers, assign = benchLevel(100_000)
	caps = make([]float64, len(pts))
	for i := range caps {
		caps[i] = 1
	}
	opt = DefaultSAOptions(1)
	opt.Iters = 2 * len(pts)
	lastBest, _, after := check("100k points", pts, caps, len(centers), assign, opt)
	t.Logf("100k points: last best at move %d, %d accepted moves after it", lastBest, after)
}

// TestGreedyRepairMatchesOracle compares the cached greedy assignment,
// which queries a center grid at every size, with the rescanning oracle.
// The sizes have n·k > 200 000 (the greedy side of BalancedAssignK) and lie
// on both sides of the gates below which k-means' assignment pass scans
// instead; the inputs are random floats and small integer grids, where
// distance and regret ties are common. The last two cases have the flow's
// shape, k = n/32 + 1 at capacity 32, so at most 32 slots are free in
// total and the drain runs its slack grid down to a few centers.
func TestGreedyRepairMatchesOracle(t *testing.T) {
	cases := []struct {
		n, k int
		caps []int // nil: the tightest capacity and the mean plus 3
		// several: the slack grid must be rebuilt at least three times
		several bool
	}{
		{1800, 120, nil, false},                   // n < minParallelPoints
		{10_100, 20, nil, false},                  // k < assignGridMinCenters
		{minParallelPoints + 100, 98, nil, false}, // above both
		{2600, 2600/32 + 1, []int{32}, false},
		{4000, 4000/32 + 1, []int{32}, true},
	}
	for _, c := range cases {
		if c.n*c.k <= 200_000 {
			t.Fatalf("n=%d k=%d is on the min-cost-flow side", c.n, c.k)
		}
		for _, integer := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(c.n + c.k)))
			pts := fastpathPts(c.n, rng, integer)
			centers := fastpathPts(c.k, rng, integer)
			caps := c.caps
			if caps == nil {
				caps = []int{(c.n + c.k - 1) / c.k, c.n/c.k + 3}
			}
			for _, cap := range caps {
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
				if c.caps != nil {
					checkSlackShrinks(t, pts, centers, got, cap, c.several)
				}
			}
		}
	}
}

// checkSlackShrinks checks the flow-shaped cases' premise: at most 32
// slots are free after the drain, and, when several rebuilds are wanted,
// the drain ends with at most 1/16 of the centers that had slack after
// the nearest pass. The slack grid halves at each rebuild and is rebuilt
// once half of its centers fill, so it ends with more than half of its
// last build's centers; a 16-fold shrink therefore takes at least three
// rebuilds.
func checkSlackShrinks(t *testing.T, pts, centers []geom.Point, assign []int, cap int, several bool) {
	t.Helper()
	k := len(centers)
	near, final := make([]int, k), make([]int, k)
	for i, p := range pts {
		best, bd := 0, math.Inf(1)
		for j, c := range centers {
			if d := p.Dist(c); d < bd {
				best, bd = j, d
			}
		}
		near[best]++
		final[assign[i]]++
	}
	var before, after, free int
	for j := range k {
		if near[j] < cap {
			before++
		}
		if final[j] < cap {
			after++
			free += cap - final[j]
		}
	}
	if free > 32 {
		t.Errorf("n=%d k=%d: %d slots free after the drain, want at most 32", len(pts), k, free)
	}
	if several && before < 16*after {
		t.Errorf("n=%d k=%d: %d centers with slack before the drain and %d after, want a 16-fold shrink",
			len(pts), k, before, after)
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

// mcfInstance draws oracle instance trial from rng: random floats at two
// scales, small integer grids full of distance ties, saturated capacities
// (cap·k < n, where the unrouted points fall to center 0), a single
// center, fewer points than centers, and stacks of coincident points and
// centers.
func mcfInstance(trial int, rng *rand.Rand) (kind string, pts, centers []geom.Point, cap int) {
	n, k := 2+rng.Intn(60), 1+rng.Intn(10)
	kind = [...]string{"float", "grid", "saturated", "k=1", "n<k", "coincident"}[trial%6]
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
	cap = (n+k-1)/k + rng.Intn(3)
	if kind == "saturated" {
		cap = (n - 1) / k
	}
	return kind, pts, centers, cap
}

// TestMCFMatchesOracle compares assignMCF with the edge-list solver element
// for element on 300 of mcfInstance's instances.
func TestMCFMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := range 300 {
		kind, pts, centers, cap := mcfInstance(trial, rng)
		got := assignMCF(pts, centers, cap, nil)
		want := oracleAssignMCF(pts, centers, cap)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (%s, n=%d k=%d cap=%d): assign[%d]=%d, oracle %d",
					trial, kind, len(pts), len(centers), cap, i, got[i], want[i])
			}
		}
	}
}
