package partition

import (
	"math"
	"math/rand"
	"sort"

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
// Members are held as a sorted index slice, not a map: SA refinement walks
// the membership when rebuilding bounding boxes, picking hull instances and
// scanning for nearest nets, and map iteration order would make those walks
// — and therefore the refined assignment — vary from run to run under the
// same seed.
type clusterState struct {
	members []int // instance indices, sorted ascending
	capSum  float64
	bbox    geom.Rect
	cx, cy  float64 // coordinate sums for the centroid

	// hull is the convex hull of the member locations, rebuilt lazily from
	// the sorted members after a membership change (nil when stale), so the
	// cached value is bit-identical to a recompute.
	hull []geom.Point
}

// insert adds i to the sorted member set (no-op if present).
func (c *clusterState) insert(i int) {
	pos := sort.SearchInts(c.members, i)
	if pos < len(c.members) && c.members[pos] == i {
		return
	}
	c.members = append(c.members, 0)
	copy(c.members[pos+1:], c.members[pos:])
	c.members[pos] = i
	c.hull = nil
}

// remove deletes i from the sorted member set (no-op if absent).
func (c *clusterState) remove(i int) {
	pos := sort.SearchInts(c.members, i)
	if pos >= len(c.members) || c.members[pos] != i {
		return
	}
	c.members = append(c.members[:pos], c.members[pos+1:]...)
	c.hull = nil
}

// netTerms are one cluster's contributions to Cost and pickCostlyNet. An
// empty cluster's terms are all zero, and adding a zero to a running sum
// leaves it unchanged, so sums over every cluster equal the sums over the
// non-empty clusters that the cost is defined on.
type netTerms struct {
	size  int     // member count
	cap   float64 // unit: fF // netCap
	delay float64 // unit: um // netDelayProxy
	// viol holds the capacitance-unified cap, WL and fanout violations, in
	// the order Cost adds them; a term is 0 where its bound holds.
	viol [3]float64 // unit: fF
	sq   float64    // squared per-net cost: pickCostlyNet's sampling weight
}

// termRuns are the running sums of netTerms over clusters 0..j, accumulated
// in ascending j: the addition order, and so the rounding, of a full pass.
type termRuns struct {
	cap   float64 // unit: fF
	delay float64 // unit: um
	viol  float64 // unit: fF
	sq    float64
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
	// terms[j] caches cluster j's cost terms and runs[j] the running sums
	// of terms[0..j]. move refreshes the terms of the two clusters it
	// touches and the sums from the lower of them up, so Cost and
	// pickCostlyNet read every cluster without recomputing any.
	terms []netTerms
	runs  []termRuns
	used  int // non-empty clusters
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
	st.runs = make([]termRuns, k)
	for j := range st.terms {
		st.refreshTerms(j)
	}
	st.rebuildRuns(0)
	if len(pts) >= saGridThreshold {
		st.grid = index.New(pts)
		st.grid.Kernel = opt.Kernel
	}
	return st
}

func (st *saState) addTo(j, i int) {
	c := st.clusters[j]
	c.insert(i)
	c.capSum += st.caps[i]
	c.bbox = c.bbox.Grow(st.pts[i])
	c.cx += st.pts[i].X
	c.cy += st.pts[i].Y
	st.assign[i] = j
}

func (st *saState) removeFrom(j, i int) {
	c := st.clusters[j]
	c.remove(i)
	c.capSum -= st.caps[i]
	c.cx -= st.pts[i].X
	c.cy -= st.pts[i].Y
	// bbox must be rebuilt after removal.
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

// refreshTerms recomputes cluster j's cost terms from its current members.
// The per-net cost that pickCostlyNet squares is the net's own cap plus
// violations: netCap + CPerUm·netWL, plus 4× the cap overflow.
func (st *saState) refreshTerms(j int) {
	t := netTerms{size: len(st.clusters[j].members)}
	if t.size > 0 {
		nc, wl := st.netCap(j), st.netWL(j)
		t.cap = nc
		t.delay = st.netDelayProxy(j)
		cost := nc + st.opt.CPerUm*wl
		if nc > st.opt.MaxCap {
			t.viol[0] = nc - st.opt.MaxCap
			cost += 4 * (nc - st.opt.MaxCap)
		}
		if wl > st.opt.MaxWL {
			t.viol[1] = st.opt.CPerUm * (wl - st.opt.MaxWL)
		}
		if st.opt.MaxFanout > 0 && t.size > st.opt.MaxFanout {
			// Each extra sink charged at the mean pin cap.
			t.viol[2] = float64(t.size-st.opt.MaxFanout) * 2
		}
		t.sq = cost * cost // square to sharpen sampling toward the worst nets
	}
	if st.terms[j].size > 0 {
		st.used--
	}
	if t.size > 0 {
		st.used++
	}
	st.terms[j] = t
}

// rebuildRuns recomputes the running sums from cluster lo up, continuing
// from the sums through lo-1.
func (st *saState) rebuildRuns(lo int) {
	var r termRuns
	if lo > 0 {
		r = st.runs[lo-1]
	}
	for j := lo; j < len(st.terms); j++ {
		t := &st.terms[j]
		r.cap += t.cap
		r.delay += t.delay
		r.viol += t.viol[0]
		r.viol += t.viol[1]
		r.viol += t.viol[2]
		r.sq += t.sq
		st.runs[j] = r
	}
}

// move reassigns instance i from cluster from to cluster to and refreshes
// the cost terms and running sums the move changed.
func (st *saState) move(i, from, to int) {
	st.removeFrom(from, i)
	st.addTo(to, i)
	st.refreshTerms(from)
	st.refreshTerms(to)
	st.rebuildRuns(min(from, to))
}

// Cost evaluates the paper's partition metric over the current state,
// p·σ(Cap) + q·σ(T) with p = q = 1 and σ the variance over non-empty
// clusters, plus 4× the capacitance-unified constraint violations. Only
// the variance pass around the means runs over the clusters; the sums come
// from the running sums, so the result is bit-identical to a full pass.
func (st *saState) Cost() float64 {
	if st.used == 0 {
		return 0
	}
	n := float64(st.used)
	all := st.runs[len(st.runs)-1]
	capMean, delayMean := all.cap/n, all.delay/n
	var capVar, delayVar float64
	for j := range st.terms {
		t := &st.terms[j]
		if t.size == 0 {
			continue
		}
		capVar += (t.cap - capMean) * (t.cap - capMean)
		delayVar += (t.delay - delayMean) * (t.delay - delayMean)
	}
	return capVar/n + delayVar/n + 4*all.viol
}

// RefineSA improves a balanced-k-means partition with the Fig. 4 local
// search: repeatedly pick a high-cost net, take an instance on its convex
// hull, move it to the nearest other net, and accept by the annealing rule.
// Returns the refined assignment (the input slice is not modified).
//
// pure:
//
//slltlint:ignore stagepure opt.Stats and opt.Kernel are write-only observability out-params that never feed back into the search; sa_determinism_test pins the returned assignment
func RefineSA(pts []geom.Point, caps []float64, k int, assign []int, opt SAOptions) []int {
	if opt.Iters <= 0 || k < 2 {
		return append([]int(nil), assign...)
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	st := newSAState(pts, caps, k, assign, opt)
	cur := st.Cost()
	best := cur
	bestAssign := append([]int(nil), st.assign...)

	temp := math.Max(cur*0.05, 1e-6)
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
			if cur < best {
				best = cur
				copy(bestAssign, st.assign)
			}
		} else {
			// Reject: undo.
			st.move(i, to, j)
		}
		temp *= cool
	}
	return bestAssign
}

// pickCostlyNet samples nets with probability weighted by their squared
// per-net cost (greedy in expectation — the paper's observation that
// descending net cost order reduces global cost efficiently — but still
// stochastic for annealing). The draw subtracts the weights in ascending
// order, so it picks the net a pass over all weights would.
func (st *saState) pickCostlyNet(rng *rand.Rand) int {
	last := len(st.terms) - 1
	total := st.runs[last].sq
	if total <= 0 {
		return -1
	}
	r := rng.Float64() * total
	for j := range last {
		r -= st.terms[j].sq
		if r <= 0 {
			return j
		}
	}
	return last
}

// pickHullInstance returns a member of net j lying on the cluster's convex
// hull (a boundary instance, per the paper's first observation: moving
// interior instances crosses interconnections).
func (st *saState) pickHullInstance(j int, rng *rand.Rand) int {
	c := st.clusters[j]
	if len(c.members) <= 1 {
		return -1
	}
	if c.hull == nil {
		locs := make([]geom.Point, len(c.members))
		for idx, m := range c.members {
			locs[idx] = st.pts[m]
		}
		c.hull = geom.ConvexHull(locs)
	}
	if len(c.hull) == 0 {
		return -1
	}
	// The memoized hull is rebuilt from the same sorted member set the old
	// code walked, so the rng.Intn stream and the chosen vertex are
	// unchanged; co-located members still resolve to the lowest index.
	target := c.hull[rng.Intn(len(c.hull))]
	for _, m := range c.members {
		if st.pts[m].Eq(target) {
			return m
		}
	}
	return -1
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
