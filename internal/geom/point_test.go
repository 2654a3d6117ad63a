package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 7},
		{Pt(-1, -2), Pt(1, 2), 6},
		{Pt(5, 5), Pt(5, 9), 4},
	}
	for _, c := range cases {
		if got := c.p.Dist(c.q); got != c.want {
			t.Errorf("Dist(%v,%v) = %g, want %g", c.p, c.q, got, c.want)
		}
		if got := c.q.Dist(c.p); got != c.want {
			t.Errorf("Dist symmetric (%v,%v) = %g, want %g", c.q, c.p, got, c.want)
		}
	}
}

func TestUVRoundTrip(t *testing.T) {
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			return true
		}
		x = math.Mod(x, 1e9)
		y = math.Mod(y, 1e9)
		p := Pt(x, y)
		q := p.ToUV().ToXY()
		return math.Abs(p.X-q.X) < 1e-6 && math.Abs(p.Y-q.Y) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestUVChebEqualsManhattan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
		q := Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
		md := p.Dist(q)
		cd := p.ToUV().Cheb(q.ToUV())
		if math.Abs(md-cd) > 1e-9 {
			t.Fatalf("Manhattan %g != Chebyshev-in-UV %g for %v %v", md, cd, p, q)
		}
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0.5); !got.Eq(Pt(5, 10)) {
		t.Errorf("Lerp half = %v", got)
	}
	if got := p.Lerp(q, 0); !got.Eq(p) {
		t.Errorf("Lerp 0 = %v", got)
	}
	if got := p.Lerp(q, 1); !got.Eq(q) {
		t.Errorf("Lerp 1 = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectOf(Pt(1, 2), Pt(5, -3), Pt(0, 0))
	if r.XLo != 0 || r.XHi != 5 || r.YLo != -3 || r.YHi != 2 {
		t.Fatalf("RectOf = %+v", r)
	}
	if !r.Contains(Pt(3, 0)) || r.Contains(Pt(6, 0)) {
		t.Error("Contains wrong")
	}
	if r.W() != 5 || r.H() != 5 || r.HalfPerimeter() != 10 {
		t.Errorf("W/H/HPWL = %g %g %g", r.W(), r.H(), r.HalfPerimeter())
	}
	if EmptyRect().Empty() != true {
		t.Error("EmptyRect not empty")
	}
}
