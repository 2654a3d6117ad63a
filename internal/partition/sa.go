package partition

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"sllt/internal/geom"
	"sllt/internal/geom/index"
	"sllt/internal/obs"
)

// saGridThreshold is the instance count at which the annealer's
// nearest-other-net query switches from the all-members scan to a grid
// expanding-ring query. Below it (the golden DEFs, the smoke digest and
// every s38584 level) the scan runs; above it (ethernet's level 0 in
// cmd/benchtab's TestFlowDigests, and every larger design) the grid keeps
// each move near-O(1) instead of O(n). The two resolve exact distance ties
// differently (scan: lowest cluster then member order; grid: lowest
// instance index), which is why the grid sits behind the threshold.
const saGridThreshold = 2048

// SAOptions configures simulated-annealing partition refinement.
type SAOptions struct {
	Iters int
	Seed  int64
	// CPerUm converts estimated net wirelength to capacitance, making
	// capacitance the unified violation metric (§3.2).
	CPerUm float64
	// MaxCap, MaxWL, MaxFanout are the per-net constraints (Table 5);
	// violations are charged as equivalent capacitance.
	MaxCap    float64
	MaxWL     float64
	MaxFanout int
	// Stats, when non-nil, receives the run's move counts. RefineSA is
	// called from the serial level loop, so plain ints suffice.
	Stats *SAStats
	// Kernel, when non-nil, receives the same counts as atomic kernel
	// counters (plus the instance grid's query counters on large levels).
	// Neither sink feeds back into any decision.
	Kernel *obs.KernelCounters
}

// SAStats reports one RefineSA run's annealing activity.
type SAStats struct {
	Proposed int // moves attempted (a hull instance found a target net)
	Accepted int // moves kept by the annealing rule
}

// DefaultSAOptions returns the options used by the hierarchical flow.
func DefaultSAOptions(seed int64) SAOptions {
	return SAOptions{
		Iters: 400, Seed: seed,
		CPerUm: 0.12, MaxCap: 150, MaxWL: 300, MaxFanout: 32,
	}
}

// clusterState tracks incremental cluster statistics during annealing.
//
// Members are held as sorted index slices, not a map: SA refinement walks
// the membership when rebuilding bounding boxes, picking hull instances and
// scanning for nearest nets, and map iteration order would make those walks
// — and therefore the refined assignment — vary from run to run under the
// same seed.
type clusterState struct {
	members []int // instance indices, sorted ascending
	xy      []int // the same indices sorted by location, then index (cmpXY)
	capSum  float64
	bbox    geom.Rect
	cx, cy  float64 // coordinate sums for the centroid

	// hull is the convex hull of the member locations, emptied by a
	// membership change and rebuilt in place by the next pickHullInstance.
	// A cluster of two or more members has a non-empty hull, so empty means
	// stale.
	hull []geom.Point
}

// saQuantum is the resolution of the annealing cost's integer sums: each
// net's cap, delay proxy and summed violations are held as whole multiples
// of 1/saQuantum fF or µm, and its sampling weight as a whole multiple of
// 1/256 of its squared cost. Integer sums do not depend on the order they
// are added in, so the sums a move updates always equal a full recompute,
// and a move costs O(cluster size + log k) instead of three O(k) passes.
//
// Bounds. Take coordinates within 10 m (1e7 µm), each net's cap (pins plus
// wire) below 2^24 fF, and fewer than 2^20 instances and clusters; at the
// flow's 0.12 fF/µm a 10 m net's wire is 2.9e6 fF.
//   - A quantized term q is below 2^41: the delay proxy is at most a 2e7 µm
//     Manhattan diameter, and the violations sum below 2^25 fF. q² is
//     formed with bits.Mul64; a 64-bit product holds only |q| < 2^32,
//     that is below 65,536 fF or µm.
//   - Over k clusters Σq < 2^61 fits an int64 and Σq² < 2^102, so the
//     variance numerator n·Σq² − (Σq)², both terms below 2^122, is exact
//     in 128 bits.
//   - A net's cost is below 5·2^24 + 2.9e6 < 2^27 fF, so its rounded
//     256·cost² is below 2^62 and converts to uint64 without overflow. The
//     total weight W could still pass 2^64 at large k, so each weight
//     saturates at ⌊(2^64−1)/k⌋ and W < 2^64. At k = 31,251 that caps only
//     nets costing over 1.5e6 fF.
const saQuantum = 1 << 16

// quantize rounds a non-negative cost term to whole quanta.
func quantize(x float64) int64 { return int64(math.Round(x * saQuantum)) }

// netTerms are one cluster's contributions to Cost and pickCostlyNet, in
// quanta. An empty cluster's terms are all zero, so sums over every
// cluster equal the sums over the non-empty clusters that the cost is
// defined on.
type netTerms struct {
	size  int   // member count
	cap   int64 // netCap
	delay int64 // netDelayProxy
	// viol is the capacitance-unified cap, WL and fanout violations,
	// added in that order and then quantized; a violation is 0 where its
	// bound holds.
	viol int64
	w    uint64 // sampling weight: 256·(per-net cost)², saturated
}

// u128 is an unsigned 128-bit integer, for the sums of squared terms.
type u128 struct{ hi, lo uint64 }

func (a u128) add(b u128) u128 {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return u128{hi, lo}
}

func (a u128) sub(b u128) u128 {
	lo, borrow := bits.Sub64(a.lo, b.lo, 0)
	hi, _ := bits.Sub64(a.hi, b.hi, borrow)
	return u128{hi, lo}
}

// square returns q² for a non-negative q.
func square(q int64) u128 {
	hi, lo := bits.Mul64(uint64(q), uint64(q))
	return u128{hi, lo}
}

// spread returns n·x2 − x1² for n values with sum x1 and sum of squares
// x2: n² times their variance, exact in 128 bits, then converted to
// float64. It is never negative (Cauchy–Schwarz).
func spread(n int, x1 int64, x2 u128) float64 {
	hi, lo := bits.Mul64(x2.lo, uint64(n))
	d := u128{hi + x2.hi*uint64(n), lo}.sub(square(x1))
	return float64(d.hi)*0x1p64 + float64(d.lo)
}

// saState is the annealing state over a whole partition.
type saState struct {
	pts      []geom.Point
	caps     []float64
	assign   []int
	clusters []*clusterState
	opt      SAOptions
	// grid indexes the (fixed) instance locations for nearestOtherNet on
	// large levels; nil below saGridThreshold. Moves change only assign, so
	// the index never needs rebuilding.
	grid *index.Grid
	// terms[j] caches cluster j's cost terms. move refreshes the terms of
	// the two clusters it touches and updates the sums over all clusters,
	// so Cost and pickCostlyNet read no cluster.
	terms []netTerms
	used  int // non-empty clusters
	// Sums over the clusters of cap, cap², delay, delay² and viol.
	sumCap, sumDelay   int64
	sumCap2, sumDelay2 u128
	sumViol            int64
	// fen is a Fenwick tree over the clusters' weights, fen[1..k], and
	// sumW their total. wMax = ⌊(2^64−1)/k⌋ caps each weight.
	fen        []uint64
	sumW, wMax uint64
	// hullLocs is rebuildHull's scratch for the sorted member locations.
	hullLocs []geom.Point
}

func newSAState(pts []geom.Point, caps []float64, k int, assign []int, opt SAOptions) *saState {
	st := &saState{pts: pts, caps: caps, assign: append([]int(nil), assign...), opt: opt}
	st.clusters = make([]*clusterState, k)
	for j := range st.clusters {
		st.clusters[j] = &clusterState{bbox: geom.EmptyRect()}
	}
	for i := range pts {
		st.addTo(assign[i], i)
	}
	st.terms = make([]netTerms, k)
	st.fen = make([]uint64, k+1)
	st.wMax = math.MaxUint64 / uint64(k)
	for j := range st.terms {
		st.refreshTerms(j)
	}
	if len(pts) >= saGridThreshold {
		st.grid = index.New(pts)
		st.grid.Kernel = opt.Kernel
	}
	return st
}

// cmpXY orders instances by location, X then Y, and then by index: the
// order geom.SortedHull needs, made total so that it is one order.
func (st *saState) cmpXY(a, b int) int {
	pa, pb := st.pts[a], st.pts[b]
	if c := cmp.Compare(pa.X, pb.X); c != 0 {
		return c
	}
	if c := cmp.Compare(pa.Y, pb.Y); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

func (st *saState) addTo(j, i int) {
	c := st.clusters[j]
	pos, _ := slices.BinarySearch(c.members, i)
	c.members = slices.Insert(c.members, pos, i)
	pos, _ = slices.BinarySearchFunc(c.xy, i, st.cmpXY)
	c.xy = slices.Insert(c.xy, pos, i)
	c.hull = c.hull[:0]
	c.capSum += st.caps[i]
	c.bbox = c.bbox.Grow(st.pts[i])
	c.cx += st.pts[i].X
	c.cy += st.pts[i].Y
	st.assign[i] = j
}

func (st *saState) removeFrom(j, i int) {
	c := st.clusters[j]
	pos, _ := slices.BinarySearch(c.members, i)
	c.members = slices.Delete(c.members, pos, pos+1)
	pos, _ = slices.BinarySearchFunc(c.xy, i, st.cmpXY)
	c.xy = slices.Delete(c.xy, pos, pos+1)
	c.hull = c.hull[:0]
	c.capSum -= st.caps[i]
	p := st.pts[i]
	c.cx -= p.X
	c.cy -= p.Y
	// A point strictly inside the bbox is neither of its extremes in
	// either axis, so other members attain all four and the bbox stands.
	// Otherwise rebuild it; min and max are exact, so either way it equals
	// the rebuild.
	b := c.bbox
	if p.X > b.XLo && p.X < b.XHi && p.Y > b.YLo && p.Y < b.YHi {
		return
	}
	c.bbox = geom.EmptyRect()
	for _, m := range c.members {
		c.bbox = c.bbox.Grow(st.pts[m])
	}
}

// netCap estimates a cluster net's total capacitance: pins plus wire at the
// HPWL-based length estimate.
func (st *saState) netCap(j int) float64 {
	c := st.clusters[j]
	return c.capSum + st.opt.CPerUm*st.netWL(j)
}

// netWL estimates routed wirelength as 1.2 × bounding-box half-perimeter, a
// standard pre-route estimate.
func (st *saState) netWL(j int) float64 {
	return 1.2 * st.clusters[j].bbox.HalfPerimeter()
}

// netDelayProxy is the T_j term: the cluster radius (max member distance
// from the centroid), which tracks the net's max driver-to-sink delay.
// Cluster j must have members.
func (st *saState) netDelayProxy(j int) float64 {
	c := st.clusters[j]
	n := len(c.members)
	ctr := geom.Pt(c.cx/float64(n), c.cy/float64(n))
	var r float64
	for _, m := range c.members {
		if d := st.pts[m].Dist(ctr); d > r {
			r = d
		}
	}
	return r
}

// refreshTerms recomputes cluster j's cost terms from its current members
// and moves the sums and the weight tree from its old terms to its new. The
// per-net cost that pickCostlyNet squares is the net's own cap plus
// violations: netCap + CPerUm·netWL, plus 4× the cap overflow.
func (st *saState) refreshTerms(j int) {
	t := netTerms{size: len(st.clusters[j].members)}
	if t.size > 0 {
		nc, wl := st.netCap(j), st.netWL(j)
		cost := nc + st.opt.CPerUm*wl
		var viol [3]float64 // unit: fF
		if nc > st.opt.MaxCap {
			viol[0] = nc - st.opt.MaxCap
			cost += 4 * (nc - st.opt.MaxCap)
		}
		if wl > st.opt.MaxWL {
			viol[1] = st.opt.CPerUm * (wl - st.opt.MaxWL)
		}
		if st.opt.MaxFanout > 0 && t.size > st.opt.MaxFanout {
			// Each extra sink charged at the mean pin cap.
			viol[2] = float64(t.size-st.opt.MaxFanout) * 2
		}
		t.cap = quantize(nc)
		t.delay = quantize(st.netDelayProxy(j))
		t.viol = quantize(viol[0] + viol[1] + viol[2])
		// Square to sharpen sampling toward the worst nets.
		t.w = min(uint64(math.Round(cost*cost*256)), st.wMax)
	}
	old := st.terms[j]
	st.sumCap += t.cap - old.cap
	st.sumCap2 = st.sumCap2.sub(square(old.cap)).add(square(t.cap))
	st.sumDelay += t.delay - old.delay
	st.sumDelay2 = st.sumDelay2.sub(square(old.delay)).add(square(t.delay))
	st.sumViol += t.viol - old.viol
	// The difference wraps modulo 2^64 when the weight falls; every sum
	// it enters is below 2^64, so the sums come out exact.
	dw := t.w - old.w
	st.sumW += dw
	for x := j + 1; x < len(st.fen); x += x & -x {
		st.fen[x] += dw
	}
	if old.size > 0 {
		st.used--
	}
	if t.size > 0 {
		st.used++
	}
	st.terms[j] = t
}

// move reassigns instance i from cluster from to cluster to and refreshes
// the cost terms and sums the move changed.
func (st *saState) move(i, from, to int) {
	st.removeFrom(from, i)
	st.addTo(to, i)
	st.refreshTerms(from)
	st.refreshTerms(to)
}

// Cost evaluates the paper's partition metric over the current state,
// p·σ(Cap) + q·σ(T) with p = q = 1 and σ the variance over non-empty
// clusters, plus 4× the capacitance-unified constraint violations, from
// the quantized sums in O(1).
func (st *saState) Cost() float64 {
	if st.used == 0 {
		return 0
	}
	nn := float64(st.used) * float64(st.used) * saQuantum * saQuantum
	return spread(st.used, st.sumCap, st.sumCap2)/nn +
		spread(st.used, st.sumDelay, st.sumDelay2)/nn +
		4*float64(st.sumViol)/saQuantum
}

// RefineSA improves a balanced-k-means partition with the Fig. 4 local
// search: repeatedly pick a high-cost net, take an instance on its convex
// hull, move it to the nearest other net, and accept by the annealing rule.
// Returns the refined assignment (the input slice is not modified).
func RefineSA(pts []geom.Point, caps []float64, k int, assign []int, opt SAOptions) []int {
	if opt.Iters <= 0 || k < 2 {
		return append([]int(nil), assign...)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	st := newSAState(pts, caps, k, assign, opt)
	cur := st.Cost()
	best := cur
	bestAssign := append([]int(nil), st.assign...)
	// since logs the moves accepted since the last new best, in order.
	// Replaying it onto bestAssign brings that to the current state, so a
	// new best costs its moves, not a copy of all n entries.
	var since []saMove

	temp := max(cur*0.05, 1e-6)
	cool := math.Pow(1e-3, 1/float64(opt.Iters)) // reach 0.1% of T0 at the end

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
		if opt.Stats != nil {
			opt.Stats.Proposed++
		}
		if opt.Kernel != nil {
			opt.Kernel.SAProposed.Add(1)
		}
		st.move(i, j, to)
		next := st.Cost()
		delta := next - cur
		if delta <= 0 || rng.Float64() < math.Exp(-delta/temp) {
			if opt.Stats != nil {
				opt.Stats.Accepted++
			}
			if opt.Kernel != nil {
				opt.Kernel.SAAccepted.Add(1)
			}
			cur = next
			since = append(since, saMove{int32(i), int32(to)})
			if cur < best {
				best = cur
				for _, m := range since {
					bestAssign[m.i] = int(m.to)
				}
				since = since[:0]
			}
		} else {
			// Reject: undo.
			st.move(i, to, j)
		}
		temp *= cool
	}
	return bestAssign
}

// saMove is one accepted annealing move: instance i went to cluster to.
type saMove struct{ i, to int32 }

// pickCostlyNet samples nets with probability weighted by their squared
// per-net cost (greedy in expectation — the paper's observation that
// descending net cost order reduces global cost efficiently — but still
// stochastic for annealing). Empty nets weigh 0 and are never drawn.
func (st *saState) pickCostlyNet(rng *rand.Rand) int {
	if st.sumW == 0 {
		return -1
	}
	return st.netAt(min(uint64(rng.Float64()*float64(st.sumW)), st.sumW-1))
}

// netAt returns the net j whose span of the weight line holds r:
// Σ_{i<j} w_i ≤ r < Σ_{i≤j} w_i, for r below the total. It descends the
// Fenwick tree, in steps halving from the largest power of two not above
// k, to the longest prefix of nets weighing at most r.
func (st *saState) netAt(r uint64) int {
	x := 0
	for step := 1 << (bits.Len(uint(len(st.fen)-1)) - 1); step > 0; step >>= 1 {
		if y := x + step; y < len(st.fen) && st.fen[y] <= r {
			x = y
			r -= st.fen[y]
		}
	}
	return x
}

// pickHullInstance returns a member of net j lying on the cluster's convex
// hull (a boundary instance, per the paper's first observation: moving
// interior instances crosses interconnections).
func (st *saState) pickHullInstance(j int, rng *rand.Rand) int {
	c := st.clusters[j]
	if len(c.members) <= 1 {
		return -1
	}
	if len(c.hull) == 0 {
		st.rebuildHull(c)
	}
	// The hull equals geom.ConvexHull of the member locations in index
	// order, vertex for vertex, so the rng.Intn stream and the chosen vertex
	// follow from the member set alone; co-located members still resolve to
	// the lowest index.
	target := c.hull[rng.Intn(len(c.hull))]
	for _, m := range c.members {
		if st.pts[m].Eq(target) {
			return m
		}
	}
	return -1
}

// rebuildHull rebuilds c's hull in its own buffer from the members already
// in (X, Y, index) order, so nothing is sorted or allocated in steady
// state. geom.ConvexHull returns an input of two points as given, in input
// order and unmerged, and so does this for a two-member cluster.
func (st *saState) rebuildHull(c *clusterState) {
	if len(c.members) <= 2 {
		c.hull = c.hull[:0]
		for _, m := range c.members {
			c.hull = append(c.hull, st.pts[m])
		}
		return
	}
	locs := st.hullLocs[:0]
	for _, m := range c.xy {
		locs = append(locs, st.pts[m])
	}
	st.hullLocs = locs
	c.hull = geom.SortedHull(c.hull, locs)
}

// nearestOtherNet returns the cluster (≠ from) whose nearest member is
// closest to point i. Above saGridThreshold the answer comes from one
// expanding-ring query over the instance grid (skipping members of from —
// including i itself, whose assignment is still from at call time); below
// it the original all-members scan runs unchanged.
func (st *saState) nearestOtherNet(i, from int) int {
	if st.grid != nil {
		q := st.pts[i]
		j, _ := st.grid.Nearest(q, func(m int) bool { return st.assign[m] == from })
		if j < 0 {
			return -1
		}
		return st.assign[j]
	}
	best, bd := -1, math.Inf(1)
	for j := range st.clusters {
		if j == from || len(st.clusters[j].members) == 0 {
			continue
		}
		for _, m := range st.clusters[j].members {
			if d := st.pts[i].Dist(st.pts[m]); d < bd {
				best, bd = j, d
			}
		}
	}
	return best
}
