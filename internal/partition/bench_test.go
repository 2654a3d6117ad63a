package partition

import (
	"math/rand"
	"testing"

	"sllt/internal/geom"
)

// benchN is the kernel benchmarks' level size: with k = n/32 + 1 = 626
// centers it sits on the greedy assignment path (n·k > 200 000) and on the
// annealer's grid path (n ≥ saGridThreshold), like a large design's level 0.
const benchN = 20_000

// benchSink keeps the compiler from discarding the benchmarked calls.
var benchSink []int

// benchLevel returns a flow-shaped level: benchN points scattered over a
// 1 mm square, the flow's fanout-32 cluster count of k-means centers, and
// the balanced assignment at capacity 32.
func benchLevel() (pts, centers []geom.Point, assign []int) {
	pts = scatter(benchN, 41)
	centers, _ = KMeansP(pts, benchN/32+1, 20, 1, 1)
	return pts, centers, BalancedAssign(pts, centers, 32)
}

// BenchmarkBalancedAssignGreedy times the greedy assignment with overflow
// repair on benchLevel's centers.
func BenchmarkBalancedAssignGreedy(b *testing.B) {
	pts, centers, _ := benchLevel()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		var method string
		if benchSink, method = BalancedAssignK(pts, centers, 32, nil); method != "greedy" {
			b.Fatalf("solver %q, want greedy", method)
		}
	}
}

// BenchmarkSARefine times RefineSA on benchLevel's assignment with the
// flow's move budget of two moves per instance.
func BenchmarkSARefine(b *testing.B) {
	pts, centers, assign := benchLevel()
	caps := make([]float64, len(pts))
	for i := range caps {
		caps[i] = 1
	}
	opt := DefaultSAOptions(1)
	opt.Iters = 2 * len(pts)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		benchSink = RefineSA(pts, caps, len(centers), assign, opt)
	}
}

// clustered returns n points in blobs of about 60 µm across, their centers
// scattered over a 1 mm square.
func clustered(n, blobs int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	hubs := make([]geom.Point, blobs)
	for b := range hubs {
		hubs[b] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		h := hubs[rng.Intn(blobs)]
		pts[i] = geom.Pt(h.X+rng.NormFloat64()*30, h.Y+rng.NormFloat64()*30)
	}
	return pts
}

// BenchmarkAssignMCF times the min-cost-flow assignment at salsa20's
// level-0 shape: 2,375 clustered points, the flow's fanout-32 cluster count
// of k-means centers (k = 75) and capacity 32, n·k = 178,125.
func BenchmarkAssignMCF(b *testing.B) {
	pts := clustered(2375, 40, 43)
	centers, _ := KMeansP(pts, len(pts)/32+1, 20, 1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		var method string
		if benchSink, method = BalancedAssignK(pts, centers, 32, nil); method != "mcf" {
			b.Fatalf("solver %q, want mcf", method)
		}
	}
}
