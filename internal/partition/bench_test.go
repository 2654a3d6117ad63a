package partition

import (
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
