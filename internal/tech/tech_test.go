package tech

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefault28nmMagnitudes(t *testing.T) {
	tc := Default28nm()
	// 100 µm of wire: a few fF, single-digit ps into a small load — the
	// regime all calibration rests on.
	if c := tc.WireCap(100); c < 5 || c > 50 {
		t.Errorf("WireCap(100um) = %g fF out of 28nm range", c)
	}
	if d := tc.WireElmore(100, 10); d < 0.5 || d > 40 {
		t.Errorf("WireElmore(100um,10fF) = %g ps out of range", d)
	}
}

func TestWireElmoreProperties(t *testing.T) {
	tc := Default28nm()
	// Quadratic in length, linear in load, zero at zero.
	if tc.WireElmore(0, 50) != 0 {
		t.Error("zero-length wire has delay")
	}
	f := func(l, c float64) bool {
		l = math.Abs(math.Mod(l, 1000))
		c = math.Abs(math.Mod(c, 200))
		// Monotone in both arguments.
		return tc.WireElmore(l+1, c) >= tc.WireElmore(l, c) &&
			tc.WireElmore(l, c+1) >= tc.WireElmore(l, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
	// Superposition: delay(L, C) = rL(cL/2 + C) decomposes exactly.
	l, c := 123.0, 17.0
	want := tc.RPerUm * l * (tc.CPerUm*l/2 + c)
	if got := tc.WireElmore(l, c); math.Abs(got-want) > 1e-12 {
		t.Errorf("WireElmore = %g, want %g", got, want)
	}
}
