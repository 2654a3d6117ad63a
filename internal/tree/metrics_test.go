package tree

import (
	"math"
	"testing"

	"sllt/internal/geom"
)

func TestMeasureChain(t *testing.T) {
	tr, net := chainTree()
	m := Measure(tr, net, 15) // use own WL as reference -> beta 1
	if m.NumSinks != 2 {
		t.Fatalf("NumSinks = %d", m.NumSinks)
	}
	if m.MaxPL != 10 || m.MinPL != 10 || m.MeanPL != 10 {
		t.Errorf("PL stats %g/%g/%g, want 10/10/10", m.MaxPL, m.MinPL, m.MeanPL)
	}
	if skew := m.MaxPL - m.MinPL; skew != 0 {
		t.Errorf("path-length skew = %g", skew)
	}
	if m.Gamma != 1 {
		t.Errorf("gamma = %g, want 1 (zero skew)", m.Gamma)
	}
	// Sink a: PL 10, MD 10 -> 1. Sink b: PL 10, MD 10 -> 1.
	if m.Alpha != 1 {
		t.Errorf("alpha = %g, want 1", m.Alpha)
	}
	if m.Beta != 1 {
		t.Errorf("beta = %g, want 1", m.Beta)
	}
	if math.Abs(m.Mean()-1) > 1e-12 {
		t.Errorf("Mean = %g", m.Mean())
	}
}

func TestMeasureDetour(t *testing.T) {
	net := &Net{Source: geom.Pt(0, 0), Sinks: []PinSink{{Name: "a", Loc: geom.Pt(4, 0)}}}
	tr := New(net.Source)
	s := net.SinkNode(0)
	tr.Root.AddChild(s)
	s.EdgeLen = 8 // snaked to twice the Manhattan distance
	m := Measure(tr, net, 4)
	if m.Alpha != 2 {
		t.Errorf("alpha = %g, want 2", m.Alpha)
	}
	if m.Beta != 2 {
		t.Errorf("beta = %g, want 2", m.Beta)
	}
	if m.Gamma != 1 { // single sink: max == mean
		t.Errorf("gamma = %g, want 1", m.Gamma)
	}
}

func TestDispersion(t *testing.T) {
	// Two sinks at distances 10 and 10: dispersion 1.
	net := &Net{Source: geom.Pt(0, 0), Sinks: []PinSink{
		{Loc: geom.Pt(10, 0)}, {Loc: geom.Pt(0, 10)},
	}}
	if d := Dispersion(net); math.Abs(d-1) > 1e-12 {
		t.Errorf("dispersion = %g, want 1", d)
	}
	// Distances 10 and 30: mean 20, max 30 -> 1.5.
	net.Sinks[1].Loc = geom.Pt(0, 30)
	if d := Dispersion(net); math.Abs(d-1.5) > 1e-12 {
		t.Errorf("dispersion = %g, want 1.5", d)
	}
}

// Theorem 2.3: when dispersion > (1+eps)^2, no tree can have both alpha and
// gamma <= 1+eps. We verify the theorem's contrapositive empirically on the
// shortest-path star tree (alpha = 1, the most shallow tree possible).
func TestTheorem23(t *testing.T) {
	eps := 0.1
	net := &Net{Source: geom.Pt(0, 0), Sinks: []PinSink{
		{Name: "near1", Loc: geom.Pt(1, 0)},
		{Name: "near2", Loc: geom.Pt(0, 1)},
		{Name: "far", Loc: geom.Pt(50, 50)},
	}}
	if !Theorem23Binding(net, eps) {
		t.Fatal("dispersed net should trigger the theorem")
	}
	// Star tree: every sink wired straight from the source (alpha = 1).
	tr := New(net.Source)
	for i := range net.Sinks {
		tr.Root.AddChild(net.SinkNode(i))
	}
	m := Measure(tr, net, tr.Wirelength())
	if m.Alpha > 1+eps {
		t.Fatalf("star tree alpha = %g, expected <= 1+eps", m.Alpha)
	}
	if m.Gamma <= 1+eps {
		t.Fatalf("theorem violated: alpha=%g gamma=%g both within 1+eps on dispersed net", m.Alpha, m.Gamma)
	}
}

func TestTheorem23NotBindingOnRing(t *testing.T) {
	// Pins on a Manhattan circle: dispersion ~ 1, theorem does not bind.
	net := &Net{Source: geom.Pt(0, 0), Sinks: []PinSink{
		{Loc: geom.Pt(10, 0)}, {Loc: geom.Pt(0, 10)},
		{Loc: geom.Pt(-10, 0)}, {Loc: geom.Pt(0, -10)},
		{Loc: geom.Pt(5, 5)}, {Loc: geom.Pt(-5, 5)},
	}}
	if Theorem23Binding(net, 0.1) {
		t.Error("ring distribution should not trigger the theorem at eps=0.1")
	}
}
