package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randOct(rng *rand.Rand) Octagon {
	// Random non-empty octagon: a TRR expanded and clipped by diagonal bands.
	p := Pt(rng.Float64()*100-50, rng.Float64()*100-50)
	o := OctFromPoint(p).Expand(rng.Float64() * 20)
	if rng.Intn(2) == 0 {
		cut := Octagon{
			ULo: math.Inf(-1), UHi: math.Inf(1),
			VLo: math.Inf(-1), VHi: math.Inf(1),
			SLo: 2*p.X - 30*rng.Float64(), SHi: 2*p.X + 30*rng.Float64(),
			WLo: math.Inf(-1), WHi: math.Inf(1),
		}
		if c := o.Intersect(cut); !c.Empty() {
			o = c
		}
	}
	return o
}

func randPointIn(o Octagon, rng *rand.Rand) (Point, bool) {
	for try := 0; try < 200; try++ {
		u := o.ULo + rng.Float64()*(o.UHi-o.ULo)
		v := o.VLo + rng.Float64()*(o.VHi-o.VLo)
		p := UV{U: u, V: v}.ToXY()
		if o.Contains(p) {
			return p, true
		}
	}
	return o.AnyPoint(), !o.Empty()
}

func TestOctFromPoint(t *testing.T) {
	p := Pt(3, 7)
	o := OctFromPoint(p)
	if !o.Contains(p) {
		t.Fatal("point octagon misses its point")
	}
	if o.Contains(Pt(3.1, 7)) {
		t.Fatal("point octagon contains a neighbor")
	}
	if !o.AnyPoint().Eq(p) {
		t.Fatalf("AnyPoint = %v", o.AnyPoint())
	}
}

func TestOctExpandContains(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		o := randOct(rng)
		if o.Empty() {
			continue
		}
		p, ok := randPointIn(o, rng)
		if !ok {
			continue
		}
		r := rng.Float64() * 10
		ex := o.Expand(r)
		// Any point within Manhattan distance r of p is in the expansion.
		ang := rng.Float64() * r
		q := Pt(p.X+ang, p.Y+(r-ang))
		if !ex.Contains(q) {
			t.Fatalf("expand(%g) misses %v at distance %g from %v\no=%v\nex=%v", r, q, p.Dist(q), p, o, ex)
		}
	}
}

func TestOctVerticesInside(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		o := randOct(rng)
		if o.Empty() {
			continue
		}
		for _, v := range o.Vertices() {
			if !o.Contains(v) {
				t.Fatalf("vertex %v outside its octagon %v", v, o)
			}
		}
	}
}

func TestOctNearestIsOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		o := randOct(rng)
		if o.Empty() {
			continue
		}
		p := Pt(rng.Float64()*300-150, rng.Float64()*300-150)
		n := o.Nearest(p)
		if !o.Contains(n) {
			t.Fatalf("Nearest %v not in octagon %v", n, o)
		}
		best := n.Dist(p)
		// No sampled interior point may be closer.
		for i := 0; i < 60; i++ {
			q, ok := randPointIn(o, rng)
			if ok && q.Dist(p) < best-1e-6 {
				t.Fatalf("sample %v closer (%g) than Nearest %v (%g) to %v in %v",
					q, q.Dist(p), n, best, p, o)
			}
		}
	}
}

func TestOctDistSymmetricAndTight(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 150; trial++ {
		a, b := randOct(rng), randOct(rng)
		if a.Empty() || b.Empty() {
			continue
		}
		d1, d2 := a.Dist(b), b.Dist(a)
		if math.Abs(d1-d2) > 1e-6 {
			t.Fatalf("asymmetric distance %g vs %g", d1, d2)
		}
		// No sampled pair may be closer; expansion by d must intersect.
		for i := 0; i < 40; i++ {
			p, ok1 := randPointIn(a, rng)
			q, ok2 := randPointIn(b, rng)
			if ok1 && ok2 && p.Dist(q) < d1-1e-6 {
				t.Fatalf("sampled pair at %g below Dist %g", p.Dist(q), d1)
			}
		}
		if d1 > 0 && a.Expand(d1+1e-6).Intersect(b).Empty() {
			t.Fatalf("expansion by Dist %g does not reach the other region", d1)
		}
	}
}

func TestOctMatchesTRR(t *testing.T) {
	// Octagon ops must reduce to TRR ops on TRR-shaped inputs.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		p1 := Pt(rng.Float64()*100, rng.Float64()*100)
		p2 := Pt(rng.Float64()*100, rng.Float64()*100)
		r1, r2 := rng.Float64()*25, rng.Float64()*25
		t1 := TRRFromPoint(p1).Expand(r1)
		t2 := TRRFromPoint(p2).Expand(r2)
		o1 := OctFromTRR(t1)
		o2 := OctFromTRR(t2)
		if got, want := o1.Dist(o2), t1.Dist(t2); math.Abs(got-want) > 1e-6 {
			t.Fatalf("octagon dist %g != TRR dist %g", got, want)
		}
		q := Pt(rng.Float64()*200-50, rng.Float64()*200-50)
		if got, want := o1.Nearest(q).Dist(q), t1.Nearest(q).Dist(q); math.Abs(got-want) > 1e-6 {
			t.Fatalf("octagon nearest dist %g != TRR %g", got, want)
		}
	}
}

func TestOctHullContainsBoth(t *testing.T) {
	f := func(ax, ay, bx, by, ra, rb float64) bool {
		norm := func(x float64) float64 { return math.Mod(math.Abs(x), 100) }
		a := OctFromPoint(Pt(norm(ax), norm(ay))).Expand(norm(ra) / 4)
		b := OctFromPoint(Pt(norm(bx), norm(by))).Expand(norm(rb) / 4)
		h := a.Hull(b)
		return h.Contains(a.AnyPoint()) && h.Contains(b.AnyPoint()) &&
			!h.Intersect(a).Empty() && !h.Intersect(b).Empty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestOctCanonIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		o := randOct(rng).Canon()
		o2 := o.Canon()
		if o != o2 {
			t.Fatalf("canon not idempotent: %v vs %v", o, o2)
		}
	}
}
