package partition

import (
	"math/rand"
	"runtime"
	"testing"

	"sllt/internal/geom"
)

// scatter generates a deterministic point cloud large enough to cross the
// minParallelPoints gate so the parallel passes really run.
func scatter(n int, seed int64) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return pts
}

// TestKMeansPWorkersInvariant is the byte-determinism contract of the
// parallel k-means: for every workers value the centers and assignment are
// bit-identical to the serial reference — including the float coordinates,
// which would drift on any reordering of the center-update accumulation.
func TestKMeansPWorkersInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	pts := scatter(3000, 5)
	const k, iters, seed = 37, 24, 11
	refC, refA := KMeansPK(pts, k, iters, seed, 1, nil)
	for _, workers := range []int{2, 3, 8} {
		c, a := KMeansPK(pts, k, iters, seed, workers, nil)
		for j := range refC {
			if c[j] != refC[j] {
				t.Fatalf("workers=%d: center %d = %v, serial %v", workers, j, c[j], refC[j])
			}
		}
		for i := range refA {
			if a[i] != refA[i] {
				t.Fatalf("workers=%d: assign[%d] = %d, serial %d", workers, i, a[i], refA[i])
			}
		}
	}
}

// TestSilhouettePWorkersInvariant: the fanned-out silhouette score equals
// the serial score exactly (same float), for clusterings with and without
// degenerate singleton clusters.
func TestSilhouettePWorkersInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	pts := scatter(900, 6)
	const k = 9
	_, assign := KMeansPK(pts, k, 24, 3, 1, nil)
	// Force a singleton cluster so the undefined-score path is exercised.
	withSingleton := append([]int(nil), assign...)
	for i := range withSingleton {
		if withSingleton[i] == k-1 {
			withSingleton[i] = 0
		}
	}
	withSingleton[0] = k - 1
	for _, a := range [][]int{assign, withSingleton} {
		ref := SilhouetteP(pts, a, k, 1)
		for _, workers := range []int{2, 5, 8} {
			if got := SilhouetteP(pts, a, k, workers); got != ref {
				t.Fatalf("workers=%d: silhouette %.17g != serial %.17g", workers, got, ref)
			}
		}
	}
}
