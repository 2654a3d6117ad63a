package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestTRRFromPointContains(t *testing.T) {
	p := Pt(3, 7)
	trr := TRRFromPoint(p)
	if !trr.IsPoint() {
		t.Fatal("point TRR should be degenerate")
	}
	if !trr.Contains(p) {
		t.Fatal("point TRR should contain its point")
	}
	if trr.Contains(Pt(3.5, 7)) {
		t.Fatal("point TRR should not contain other points")
	}
}

func TestTRRExpandContains(t *testing.T) {
	p := Pt(0, 0)
	trr := TRRFromPoint(p).Expand(5)
	// Boundary of a radius-5 tilted square.
	for _, q := range []Point{Pt(5, 0), Pt(0, 5), Pt(-5, 0), Pt(0, -5), Pt(2, 3), Pt(-2.5, -2.5)} {
		if !trr.Contains(q) {
			t.Errorf("expanded TRR should contain %v", q)
		}
	}
	for _, q := range []Point{Pt(5.1, 0), Pt(3, 3), Pt(-4, 2)} {
		if trr.Contains(q) {
			t.Errorf("expanded TRR should not contain %v", q)
		}
	}
}

// Expanding two point-TRRs by radii that sum to their distance must yield a
// non-empty intersection (the merging segment) whose every corner is at the
// right distance from both centers. This is the core DME invariant.
func TestTRRMergingSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		d := a.Dist(b)
		if d < 1 {
			continue
		}
		ra := rng.Float64() * d
		rb := d - ra
		ms := TRRFromPoint(a).Expand(ra).Intersect(TRRFromPoint(b).Expand(rb))
		if ms.Empty() {
			t.Fatalf("merging segment empty: a=%v b=%v ra=%g rb=%g", a, b, ra, rb)
		}
		for _, c := range ms.Corners() {
			da, db := c.Dist(a), c.Dist(b)
			if da > ra+1e-6 || db > rb+1e-6 {
				t.Fatalf("corner %v outside radii: da=%g ra=%g db=%g rb=%g", c, da, ra, db, rb)
			}
		}
	}
}

func TestTRRDist(t *testing.T) {
	a := TRRFromPoint(Pt(0, 0))
	b := TRRFromPoint(Pt(10, 0))
	if got := a.Dist(b); math.Abs(got-10) > 1e-9 {
		t.Errorf("point-point TRR dist = %g, want 10", got)
	}
	// Expanded regions move closer by the sum of radii.
	if got := a.Expand(3).Dist(b.Expand(2)); math.Abs(got-5) > 1e-9 {
		t.Errorf("expanded TRR dist = %g, want 5", got)
	}
	// Overlapping regions have distance 0.
	if got := a.Expand(6).Dist(b.Expand(6)); got != 0 {
		t.Errorf("overlapping TRR dist = %g, want 0", got)
	}
}

func TestTRRDistMatchesNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		a := TRRFromPoint(Pt(rng.Float64()*200-100, rng.Float64()*200-100)).Expand(rng.Float64() * 30)
		b := TRRFromPoint(Pt(rng.Float64()*200-100, rng.Float64()*200-100)).Expand(rng.Float64() * 30)
		d := a.Dist(b)
		pa, pb := a.NearestTo(b)
		if !a.Contains(pa) || !b.Contains(pb) {
			t.Fatalf("nearest points outside their regions: %v %v", pa, pb)
		}
		if math.Abs(pa.Dist(pb)-d) > 1e-6 {
			t.Fatalf("NearestTo dist %g != Dist %g", pa.Dist(pb), d)
		}
	}
}

func TestTRRNearestIsClosest(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		trr := TRRFromPoint(Pt(rng.Float64()*100, rng.Float64()*100)).Expand(rng.Float64() * 20)
		p := Pt(rng.Float64()*300-100, rng.Float64()*300-100)
		n := trr.Nearest(p)
		if !trr.Contains(n) {
			t.Fatalf("Nearest %v not inside %v", n, trr)
		}
		// Sample the region; nothing should be closer.
		best := n.Dist(p)
		for j := 0; j < 50; j++ {
			u := trr.ULo + rng.Float64()*(trr.UHi-trr.ULo)
			v := trr.VLo + rng.Float64()*(trr.VHi-trr.VLo)
			q := UV{U: u, V: v}.ToXY()
			if q.Dist(p) < best-1e-6 {
				t.Fatalf("sample %v closer (%g) than Nearest %v (%g)", q, q.Dist(p), n, best)
			}
		}
	}
}

func TestTRRIntersectEmpty(t *testing.T) {
	a := TRRFromPoint(Pt(0, 0)).Expand(1)
	b := TRRFromPoint(Pt(100, 100)).Expand(1)
	if !a.Intersect(b).Empty() {
		t.Error("far-apart TRRs should not intersect")
	}
}
