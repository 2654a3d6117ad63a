// Package partition implements the paper's §3.2 partition scheme: balanced
// k-means clustering with min-cost-flow sink assignment, silhouette-scored
// cluster quality, the latency/capacitance-adaptive cost
// Cost = p·σ(Cap) + q·σ(T), and simulated-annealing refinement whose local
// moves follow Fig. 4 (convex-hull boundary instances migrate to the
// nearest neighboring net).
package partition

import (
	"math"
	"math/rand"
	"sort"

	"sllt/internal/geom"
	"sllt/internal/geom/index"
	"sllt/internal/obs"
	"sllt/internal/parallel"
)

// minParallelPoints gates the parallel k-means passes: below this the
// per-level goroutine handoff costs more than the O(n·k) distance scan it
// splits. The gate only affects wall clock, never results — the parallel
// passes are byte-identical to the serial ones by construction.
const minParallelPoints = 2048

// assignGridMinCenters gates the grid-indexed assignment pass: a grid over
// the centers only pays off once the per-point O(k) center sweep it replaces
// is wide enough. The gate affects wall clock only — the grid's
// lowest-index tie rule is exactly the ascending scan's, so assignments are
// byte-identical either way (property-tested, ties included).
const assignGridMinCenters = 24

// seedSampleThreshold is the point count above which farthest-point seeding
// runs on a deterministic stride sample of seedSampleSize points instead of
// the full set, bounding the O(n·k) seeding sweep at 10⁵⁺-sink levels.
// Below the threshold seeding is exhaustive and unchanged.
const (
	seedSampleThreshold = 16384
	seedSampleSize      = 4096
)

// KMeans runs Lloyd's algorithm with deterministic farthest-point seeding
// and returns the cluster centers and per-point assignment. k is clamped to
// [1, len(pts)].
func KMeans(pts []geom.Point, k, iters int, seed int64) ([]geom.Point, []int) {
	return KMeansP(pts, k, iters, seed, 1)
}

// KMeansP is KMeans with an indexed worker fan-out over the two O(n·k)
// passes of each Lloyd iteration. Results are identical to KMeans for every
// workers value: the assignment pass is per-point independent, and the
// center-update pass accumulates each cluster's coordinate sums over its
// members in ascending point order — the same float addition sequence the
// serial accumulator performs — before a serial, ascending-j re-seeding
// sweep for empty clusters (whose mid-sweep reads of mixed old/new centers
// are part of the reference semantics).
func KMeansP(pts []geom.Point, k, iters int, seed int64, workers int) ([]geom.Point, []int) {
	return KMeansPK(pts, k, iters, seed, workers, nil)
}

// KMeansPK is KMeansP with kernel-counter attribution: each Lloyd iteration
// bumps kern.KMeansIters and the assignment pass's grid reports its query
// counts, when kern is non-nil. The counters never feed back into the
// algorithm, so KMeansPK(… , nil) and KMeansP are the same function.
//
// pure:
func KMeansPK(pts []geom.Point, k, iters int, seed int64, workers int, kern *obs.KernelCounters) ([]geom.Point, []int) {
	n := len(pts)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if n < minParallelPoints {
		workers = 1
	}
	rng := rand.New(rand.NewSource(seed))
	centers := seedCenters(pts, k, rng)
	assign := make([]int, n)
	members := make([][]int, k)
	newCenters := make([]geom.Point, k)
	for it := 0; it < iters; it++ {
		if kern != nil {
			kern.KMeansIters.Add(1)
		}
		changed := assignPointsK(pts, centers, assign, workers, kern)

		// Bucket members per cluster, ascending point index (serial O(n)).
		for j := range members {
			members[j] = members[j][:0]
		}
		for i, a := range assign {
			members[a] = append(members[a], i)
		}

		// Center update: per-cluster sums over the member list reproduce the
		// serial accumulator's addition order exactly, so the pass can fan
		// out over clusters.
		parallel.ForEach(workers, k, func(j int) error {
			mem := members[j]
			if len(mem) == 0 {
				return nil
			}
			var sx, sy float64
			for _, i := range mem {
				sx += pts[i].X
				sy += pts[i].Y
			}
			newCenters[j] = geom.Pt(sx/float64(len(mem)), sy/float64(len(mem)))
			return nil
		})

		// Serial apply + empty-cluster re-seeding in ascending j: an empty
		// cluster's farthest-point probe sees centers[0..j-1] updated and
		// centers[j..] stale, exactly like the fused serial loop did.
		for j := 0; j < k; j++ {
			if len(members[j]) == 0 {
				centers[j] = farthestPoint(pts, assign, centers)
				changed = true
				continue
			}
			centers[j] = newCenters[j]
		}
		if !changed {
			break
		}
	}
	return centers, assign
}

// assignPoints writes each point's nearest-center index into assign and
// reports whether any assignment changed. Each point's answer is
// independent of every other's, so the pass partitions into contiguous
// chunks; per-chunk change flags are OR-reduced after the fan-out.
func assignPoints(pts []geom.Point, centers []geom.Point, assign []int, workers int) bool {
	return assignPointsK(pts, centers, assign, workers, nil)
}

// assignPointsK is assignPoints with optional kernel-counter attribution on
// the center grid's queries.
func assignPointsK(pts []geom.Point, centers []geom.Point, assign []int, workers int, kern *obs.KernelCounters) bool {
	n := len(pts)
	workers = parallel.Clamp(workers)
	// A grid over the centers answers each point's nearest-center query in
	// near-constant time with the scan's exact lowest-index tie rule, so the
	// indexed pass is byte-identical to the exhaustive one. The grid is
	// built once here and only read inside the fan-out.
	var g *index.Grid
	if len(centers) >= assignGridMinCenters && n >= minParallelPoints {
		g = index.New(centers)
		g.Kernel = kern
	}
	if workers == 1 {
		return assignRange(pts, centers, assign, 0, n, g)
	}
	chunks := workers * 4
	if chunks > n {
		chunks = n
	}
	chg := make([]bool, chunks)
	parallel.ForEach(workers, chunks, func(c int) error {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		chg[c] = assignRange(pts, centers, assign, lo, hi, g)
		return nil
	})
	for _, c := range chg {
		if c {
			return true
		}
	}
	return false
}

// assignRange is the serial kernel of the assignment pass over pts[lo:hi].
// With a grid it queries the center index; without it, the ascending scan.
func assignRange(pts []geom.Point, centers []geom.Point, assign []int, lo, hi int, g *index.Grid) bool {
	changed := false
	for i := lo; i < hi; i++ {
		p := pts[i]
		best := 0
		if g != nil {
			best, _ = g.Nearest(p, nil)
		} else {
			bd := math.Inf(1)
			for j, c := range centers {
				if d := p.Dist(c); d < bd {
					best, bd = j, d
				}
			}
		}
		if assign[i] != best {
			assign[i] = best
			changed = true
		}
	}
	return changed
}

// seedCenters picks k starting centers: the first at an rng-chosen point,
// the rest by farthest-point traversal — deterministic given rng only
// breaks exact ties. Above seedSampleThreshold points the traversal runs on
// a deterministic stride sample (the first center is still drawn from the
// full set with the same single rng call, so the rng stream downstream is
// unaffected); below it the pass is exhaustive and unchanged.
func seedCenters(pts []geom.Point, k int, rng *rand.Rand) []geom.Point {
	first := pts[rng.Intn(len(pts))]
	pool := pts
	// Keep the sample at least 4× the center count so the traversal never
	// runs out of distinct candidates.
	if target := max(seedSampleSize, 4*k); len(pts) >= seedSampleThreshold && len(pts) > target {
		stride := (len(pts) + target - 1) / target
		if stride > 1 {
			pool = make([]geom.Point, 0, len(pts)/stride+1)
			for i := 0; i < len(pts); i += stride {
				pool = append(pool, pts[i])
			}
		}
	}
	centers := make([]geom.Point, 0, k)
	centers = append(centers, first)
	minD := make([]float64, len(pool))
	for i, p := range pool {
		minD[i] = p.Dist(centers[0])
	}
	for len(centers) < k {
		best, bd := 0, -1.0
		for i, d := range minD {
			if d > bd {
				best, bd = i, d
			}
		}
		c := pool[best]
		centers = append(centers, c)
		for i, p := range pool {
			if d := p.Dist(c); d < minD[i] {
				minD[i] = d
			}
		}
	}
	return centers
}

// farthestPoint returns the point farthest from its assigned center, the
// re-seeding probe for emptied clusters.
func farthestPoint(pts []geom.Point, assign []int, centers []geom.Point) geom.Point {
	best, bd := 0, -1.0
	for i, p := range pts {
		if d := p.Dist(centers[assign[i]]); d > bd {
			best, bd = i, d
		}
	}
	return pts[best]
}

// Silhouette returns the mean silhouette coefficient of the clustering:
// for each point, (b−a)/max(a,b) with a the mean distance to its own
// cluster and b the smallest mean distance to another cluster. Values near
// 1 indicate compact, well-separated clusters. O(n²); intended for the
// cluster-count selection on moderate instance counts.
func Silhouette(pts []geom.Point, assign []int, k int) float64 {
	return SilhouetteP(pts, assign, k, 1)
}

// SilhouetteP is Silhouette with the O(n²) per-point scoring fanned out
// over workers. Each point's coefficient is an independent function of the
// whole point set, so tasks write only their own slot; the mean is then
// reduced serially in point order, giving the exact float result of the
// serial loop for every workers value. The score is exact at every size;
// callers bound n (cts subsamples to 2500 points first).
//
// pure:
func SilhouetteP(pts []geom.Point, assign []int, k, workers int) float64 {
	n := len(pts)
	if n == 0 || k < 2 {
		return 0
	}
	const unscored = math.MaxFloat64 // sentinel: point contributes nothing
	scores := make([]float64, n)
	// Chunked fan-out so the O(k) scoring scratch is allocated once per chunk
	// instead of once per point (the 2500-point flow call used to pay 2·n
	// slice allocations here). Each scores[i] is an independent function of
	// (pts, assign) and the scratch is fully reinitialized per point, so the
	// result is float-identical to the per-point fan-out for every workers
	// value.
	chunks := parallel.Clamp(workers) * 4
	if chunks > n {
		chunks = n
	}
	parallel.ForEach(workers, chunks, func(c int) error {
		sum, cnt := make([]float64, k), make([]int, k)
		for i := c * n / chunks; i < (c+1)*n/chunks; i++ {
			scores[i] = silhouetteOf(pts, assign, k, i, sum, cnt)
		}
		return nil
	})
	var total float64
	counted := 0
	for _, s := range scores {
		if s == unscored {
			continue
		}
		total += s
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// silhouetteOf computes point i's silhouette coefficient, or the unscored
// sentinel when it is undefined (singleton cluster, no other cluster, or a
// degenerate zero denominator). sum and cnt are caller-provided k-sized
// scratch, reinitialized here so reuse across points cannot leak state.
func silhouetteOf(pts []geom.Point, assign []int, k, i int, sum []float64, cnt []int) float64 {
	for j := 0; j < k; j++ {
		sum[j], cnt[j] = 0, 0
	}
	p := pts[i]
	for j, q := range pts {
		if i == j {
			continue
		}
		sum[assign[j]] += p.Dist(q)
		cnt[assign[j]]++
	}
	own := assign[i]
	if cnt[own] == 0 {
		return math.MaxFloat64 // singleton cluster: silhouette undefined, skip
	}
	a := sum[own] / float64(cnt[own])
	b := math.Inf(1)
	for j := 0; j < k; j++ {
		if j == own || cnt[j] == 0 {
			continue
		}
		if m := sum[j] / float64(cnt[j]); m < b {
			b = m
		}
	}
	if math.IsInf(b, 1) {
		return math.MaxFloat64
	}
	den := math.Max(a, b)
	if den <= 0 {
		return math.MaxFloat64
	}
	return (b - a) / den
}

// BalancedAssign produces an assignment of points to the given centers in
// which no cluster exceeds cap members. Small instances are solved exactly
// as a min-cost flow (a transportation problem); large ones use nearest
// assignment with regret-ordered overflow repair, which is within a few
// percent of optimal in practice and scales to hundred-thousand-sink
// designs.
func BalancedAssign(pts []geom.Point, centers []geom.Point, cap int) []int {
	assign, _ := BalancedAssignK(pts, centers, cap, nil)
	return assign
}

// BalancedAssignK is BalancedAssign with run-report attribution: it also
// returns which solver ran ("mcf" or "greedy"), the flow solver bumps
// kern.MCFAugments per augmenting path, and the greedy solver's center
// grid reports its query counts, when kern is non-nil.
//
// pure:
func BalancedAssignK(pts []geom.Point, centers []geom.Point, cap int, kern *obs.KernelCounters) ([]int, string) {
	if cap*len(centers) < len(pts) {
		cap = (len(pts) + len(centers) - 1) / len(centers)
	}
	if len(pts)*len(centers) <= 200_000 {
		return assignMCF(pts, centers, cap, kern), "mcf"
	}
	return assignGreedyRepair(pts, centers, cap, kern), "greedy"
}

// assignGreedyRepair assigns each point to its nearest center, then drains
// each over-capacity cluster j, in ascending j, one member at a time: the
// member with the lowest regret (the extra distance to its nearest other
// center with slack) moves to that center.
//
// Only the cluster being drained loses members and only clusters with
// slack gain them, so a cluster over capacity at its turn holds exactly its
// nearest-pass members, and while it drains the set of centers with slack
// only shrinks. Each member's nearest center with slack is therefore
// computed once and recomputed only after that center fills; a cached
// choice that still has slack stays the lowest-index nearest one. The
// candidates reach the (unstable) sort in ascending member order, the order
// a scan over all points produces, so the same member moves.
func assignGreedyRepair(pts []geom.Point, centers []geom.Point, cap int, kern *obs.KernelCounters) []int {
	n, k := len(pts), len(centers)
	// Both passes query one grid over the centers. Its lowest-index tie
	// rule is the ascending scan's, so each answer is the scan's.
	g := index.New(centers)
	g.Kernel = kern
	assign := make([]int, n)
	assignRange(pts, centers, assign, 0, n, g)
	// Bucket the points by cluster, ascending within each bucket.
	start := make([]int, k+1)
	for _, a := range assign {
		start[a+1]++
	}
	for j := range k {
		start[j+1] += start[j]
	}
	load := make([]int, k)
	members := make([]int, n)
	for i, a := range assign {
		members[start[a]+load[a]] = i
		load[a]++
	}

	type cand struct {
		idx    int
		regret float64
		to     int
	}
	var (
		to     []int     // per member of j: nearest center with slack, or -1
		regret []float64 // per member of j: the extra distance of going there
		cands  []cand
		j      int
	)
	noSlack := func(jj int) bool { return jj == j || load[jj] >= cap }
	for j = range k {
		if load[j] <= cap {
			continue
		}
		mem := members[start[j]:start[j+1]]
		to, regret = to[:0], regret[:0]
		for _, i := range mem {
			t, bd := g.Nearest(pts[i], noSlack)
			to = append(to, t)
			regret = append(regret, bd-pts[i].Dist(centers[j]))
		}
		for load[j] > cap {
			cands = cands[:0]
			for m, i := range mem {
				if assign[i] != j || to[m] < 0 {
					continue
				}
				if load[to[m]] >= cap {
					var bd float64
					if to[m], bd = g.Nearest(pts[i], noSlack); to[m] < 0 {
						continue
					}
					regret[m] = bd - pts[i].Dist(centers[j])
				}
				cands = append(cands, cand{i, regret[m], to[m]})
			}
			if len(cands) == 0 {
				break // nowhere to move; give up on strict balance
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
