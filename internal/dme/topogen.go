package dme

import (
	"math"
	"sort"

	"sllt/internal/geom"
	"sllt/internal/tree"
)

// TopoMethod selects the merging-topology generation scheme used to seed
// BST/ZST construction — the four candidates named in the paper (§2.3):
// Greedy-Dist, Greedy-Merge, Bi-Partition and Bi-Cluster.
type TopoMethod int

// Topology generation methods.
const (
	// GreedyDist merges the two closest subtrees at each step.
	GreedyDist TopoMethod = iota
	// GreedyMerge merges the pair with the minimum merging cost (total wire
	// including any snaking the skew bound forces) at each step.
	GreedyMerge
	// BiPartition recursively splits the sink set in two, choosing the cut
	// (x- or y-median) with the smaller diameter cost.
	BiPartition
	// BiCluster recursively bi-partitions with 2-means clustering.
	BiCluster
)

// String implements fmt.Stringer.
func (m TopoMethod) String() string {
	switch m {
	case GreedyDist:
		return "greedy-dist"
	case GreedyMerge:
		return "greedy-merge"
	case BiPartition:
		return "bi-partition"
	case BiCluster:
		return "bi-cluster"
	}
	return "unknown"
}

// AllTopoMethods lists every generation scheme, in paper order.
var AllTopoMethods = []TopoMethod{GreedyDist, GreedyMerge, BiPartition, BiCluster}

// GenTopo builds a binary merging topology over the net's sinks.
// lengthSkewBudget is the path-length skew allowance used by the greedy
// methods' cost model (pass the linear-model skew bound; for Elmore runs,
// pass Options.LengthBudget).
func GenTopo(net *tree.Net, method TopoMethod, lengthSkewBudget float64) *tree.Topo {
	n := len(net.Sinks)
	if n == 0 {
		return &tree.Topo{}
	}
	if n == 1 {
		return &tree.Topo{Root: tree.TopoLeaf(0)}
	}
	switch method {
	case GreedyDist, GreedyMerge:
		return greedyTopo(net, method, lengthSkewBudget)
	case BiPartition:
		idx := allIdx(n)
		return &tree.Topo{Root: biPartition(net, idx)}
	case BiCluster:
		idx := allIdx(n)
		return &tree.Topo{Root: biCluster(net, idx, 0)}
	}
	return greedyTopo(net, GreedyDist, lengthSkewBudget)
}

// LengthBudget converts the configured skew bound into an equivalent
// path-length allowance for topology guidance: identical for the linear
// model; for Elmore, the wire length whose delay into an average sink load
// equals the bound.
func (o Options) LengthBudget(net *tree.Net) float64 {
	if o.Model == Linear {
		return o.SkewBound
	}
	var avgCap float64
	for _, s := range net.Sinks {
		avgCap += s.Cap
	}
	if len(net.Sinks) > 0 {
		avgCap /= float64(len(net.Sinks))
	}
	return o.invDelayAdd(o.SkewBound, avgCap)
}

func allIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// greedyTopo implements Greedy-Dist and Greedy-Merge: bottom-up pairwise
// merging with either region distance or full merging cost as the
// selection criterion. Cluster state tracks linear-model merging segments
// and delay intervals so snaking costs are visible to Greedy-Merge.
func greedyTopo(net *tree.Net, method TopoMethod, budget float64) *tree.Topo {
	type cluster struct {
		ms     geom.TRR
		lo, hi float64
		tn     *tree.TopoNode
	}
	var clusters []*cluster
	for i, s := range net.Sinks {
		clusters = append(clusters, &cluster{
			ms: geom.TRRFromPoint(s.Loc),
			tn: tree.TopoLeaf(i),
		})
	}
	// Lightweight linear-model merge cost: total wire including any
	// snaking the skew budget forces (see linearSplit for the math).
	cost := func(a, b *cluster) (d, ea, eb float64) {
		d = a.ms.Dist(b.ms)
		am := &mnode{lo: a.lo, hi: a.hi}
		bm := &mnode{lo: b.lo, hi: b.hi}
		ea, eb = linearSplit(am, bm, d, budget)
		return d, ea, eb
	}
	for len(clusters) > 1 {
		bi, bj := 0, 1
		best := math.Inf(1)
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				var c float64
				if method == GreedyDist {
					c = clusters[i].ms.Dist(clusters[j].ms)
				} else {
					_, ea, eb := cost(clusters[i], clusters[j])
					c = ea + eb
				}
				if c < best {
					best, bi, bj = c, i, j
				}
			}
		}
		a, b := clusters[bi], clusters[bj]
		_, ea, eb := cost(a, b)
		ms := a.ms.Expand(ea).Intersect(b.ms.Expand(eb))
		if ms.Empty() {
			ms = a.ms.Expand(ea + 1e-6).Intersect(b.ms.Expand(eb + 1e-6))
		}
		nc := &cluster{
			ms: ms,
			lo: math.Min(a.lo+ea, b.lo+eb),
			hi: math.Max(a.hi+ea, b.hi+eb),
			tn: tree.TopoMerge(a.tn, b.tn),
		}
		clusters = append(clusters[:bj], clusters[bj+1:]...)
		clusters[bi] = nc
	}
	return &tree.Topo{Root: clusters[0].tn}
}

// biPartition recursively splits idx by the x- or y-median, whichever gives
// the smaller diameter cost (sum of subset bounding-box half-perimeters).
func biPartition(net *tree.Net, idx []int) *tree.TopoNode {
	if len(idx) == 1 {
		return tree.TopoLeaf(idx[0])
	}
	if len(idx) == 2 {
		return tree.TopoMerge(tree.TopoLeaf(idx[0]), tree.TopoLeaf(idx[1]))
	}
	byX := append([]int(nil), idx...)
	sort.Slice(byX, func(i, j int) bool { return net.Sinks[byX[i]].Loc.X < net.Sinks[byX[j]].Loc.X })
	byY := append([]int(nil), idx...)
	sort.Slice(byY, func(i, j int) bool { return net.Sinks[byY[i]].Loc.Y < net.Sinks[byY[j]].Loc.Y })
	mid := len(idx) / 2
	costX := diam(net, byX[:mid]) + diam(net, byX[mid:])
	costY := diam(net, byY[:mid]) + diam(net, byY[mid:])
	split := byX
	if costY < costX {
		split = byY
	}
	return tree.TopoMerge(biPartition(net, split[:mid]), biPartition(net, split[mid:]))
}

func diam(net *tree.Net, idx []int) float64 {
	r := geom.EmptyRect()
	for _, i := range idx {
		r = r.Grow(net.Sinks[i].Loc)
	}
	return r.HalfPerimeter()
}

// biCluster recursively splits idx with 2-means (Lloyd) clustering.
func biCluster(net *tree.Net, idx []int, depth int) *tree.TopoNode {
	if len(idx) == 1 {
		return tree.TopoLeaf(idx[0])
	}
	if len(idx) == 2 {
		return tree.TopoMerge(tree.TopoLeaf(idx[0]), tree.TopoLeaf(idx[1]))
	}
	a, b := twoMeans(net, idx)
	if len(a) == 0 || len(b) == 0 {
		// Degenerate geometry (coincident points): fall back to a plain
		// half split to guarantee progress.
		mid := len(idx) / 2
		a, b = idx[:mid], idx[mid:]
	}
	return tree.TopoMerge(biCluster(net, a, depth+1), biCluster(net, b, depth+1))
}

// twoMeans partitions idx into two clusters with Lloyd's algorithm seeded by
// the bounding-box extremes. Deterministic.
func twoMeans(net *tree.Net, idx []int) (a, b []int) {
	// Seeds: the pair of points realizing the bbox diagonal.
	var pa, pb geom.Point
	var bestD float64 = -1
	// O(n) seeding: extreme points along the dominant axis.
	r := geom.EmptyRect()
	for _, i := range idx {
		r = r.Grow(net.Sinks[i].Loc)
	}
	for _, i := range idx {
		p := net.Sinks[i].Loc
		if d := p.Dist(geom.Pt(r.XLo, r.YLo)); d > bestD {
			// farthest from the low corner seeds pb
			bestD, pb = d, p
		}
	}
	bestD = -1
	for _, i := range idx {
		p := net.Sinks[i].Loc
		if d := p.Dist(pb); d > bestD {
			bestD, pa = d, p
		}
	}
	ca, cb := pa, pb
	for iter := 0; iter < 16; iter++ {
		a, b = a[:0], b[:0]
		for _, i := range idx {
			p := net.Sinks[i].Loc
			if p.Dist(ca) <= p.Dist(cb) {
				a = append(a, i)
			} else {
				b = append(b, i)
			}
		}
		if len(a) == 0 || len(b) == 0 {
			return a, b
		}
		na, nb := centroid(net, a), centroid(net, b)
		if na.Eq(ca) && nb.Eq(cb) {
			break
		}
		ca, cb = na, nb
	}
	return a, b
}

func centroid(net *tree.Net, idx []int) geom.Point {
	var sx, sy float64
	for _, i := range idx {
		sx += net.Sinks[i].Loc.X
		sy += net.Sinks[i].Loc.Y
	}
	n := float64(len(idx))
	return geom.Pt(sx/n, sy/n)
}
