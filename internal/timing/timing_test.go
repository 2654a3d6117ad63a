package timing

import (
	"math"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/liberty"
	"sllt/internal/tech"
	"sllt/internal/tree"
)

// buffered chain: source -> BUF(at 0,0) -> wire 100 -> sink(100,0).
func bufferedChain(lib *liberty.Library) (*tree.Tree, *liberty.BufferCell) {
	t := tree.New(geom.Pt(0, 0))
	cell := lib.Cell("CLKBUFX4")
	buf := tree.NewNode(tree.Buffer, geom.Pt(0, 0))
	buf.BufCell = cell.Name
	buf.PinCap = cell.InputCap
	t.Root.AddChild(buf)
	sink := tree.NewNode(tree.Sink, geom.Pt(100, 0))
	sink.PinCap = 2
	sink.SinkIdx = 0
	buf.AddChild(sink)
	return t, cell
}

func TestAnalyzeChainByHand(t *testing.T) {
	lib := liberty.Default()
	tc := tech.Default28nm()
	tr, cell := bufferedChain(lib)
	rep, err := Analyze(tr, lib, tc, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Stage load of the buffer: 100 µm wire + 2 fF pin.
	load := tc.WireCap(100) + 2
	wantBuf := cell.Delay(10, load)
	wantWire := tc.WireElmore(100, 2)
	want := wantBuf + wantWire
	if math.Abs(rep.MaxLatency-want) > 1e-9 {
		t.Errorf("latency = %g, want %g", rep.MaxLatency, want)
	}
	if rep.Skew != 0 {
		t.Errorf("single-sink skew = %g", rep.Skew)
	}
	if rep.Buffers != 1 || math.Abs(rep.BufArea-cell.Area) > 1e-12 {
		t.Errorf("buffers = %d area %g", rep.Buffers, rep.BufArea)
	}
	wantCap := tc.WireCap(100) + 2 + cell.InputCap
	if math.Abs(rep.ClockCap-wantCap) > 1e-9 {
		t.Errorf("clock cap = %g, want %g", rep.ClockCap, wantCap)
	}
	if rep.WL != 100 {
		t.Errorf("WL = %g", rep.WL)
	}
	if math.Abs(rep.MaxStgCap-load) > 1e-9 {
		t.Errorf("stage cap = %g, want %g", rep.MaxStgCap, load)
	}
}

// TestStageCapsByHand checks the stage model below a branch, by hand: the
// source feeds a Steiner point, which feeds sink a and a CLKBUFX2 (0.8 fF
// input pin) that drives sinks c and d. Wire is 0.12 fF/µm.
func TestStageCapsByHand(t *testing.T) {
	lib := liberty.Default()
	tc := tech.Default28nm()
	tr := tree.New(geom.Pt(0, 0))
	st := tree.NewNode(tree.Steiner, geom.Pt(50, 0))
	tr.Root.AddChild(st)
	sink := func(parent *tree.Node, x, y, pin float64, idx int) *tree.Node {
		s := tree.NewNode(tree.Sink, geom.Pt(x, y))
		s.PinCap = pin
		s.SinkIdx = idx
		parent.AddChild(s)
		return s
	}
	a := sink(st, 50, 30, 2, 0)
	buf := tree.NewNode(tree.Buffer, geom.Pt(80, 0))
	buf.BufCell = "CLKBUFX2"
	buf.PinCap = lib.Cell("CLKBUFX2").InputCap
	st.AddChild(buf)
	c := sink(buf, 80, 40, 1.5, 1)
	d := sink(buf, 140, 0, 2.5, 2)

	caps := StageCaps(tr.Root, tc)
	for _, want := range []struct {
		name string
		n    *tree.Node
		fF   float64
	}{
		{"sink a", a, 2},
		{"sink c", c, 1.5},
		{"sink d", d, 2.5},
		{"buffer (input pin only)", buf, 0.8},
		{"Steiner point", st, (30*0.12 + 2) + (30*0.12 + 0.8)}, // 10.0
		{"source", tr.Root, 50*0.12 + 10},                      // 16.0
	} {
		if got := caps[want.n]; math.Abs(got-want.fF) > 1e-9 {
			t.Errorf("StageCaps at %s = %g fF, want %g", want.name, got, want.fF)
		}
	}
	load := (40*0.12 + 1.5) + (60*0.12 + 2.5) // 16.0
	if got := BufferLoad(buf, caps, tc); math.Abs(got-load) > 1e-9 {
		t.Errorf("BufferLoad = %g fF, want %g", got, load)
	}
	rep, err := Analyze(tr, lib, tc, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Buffers != 1 || math.Abs(rep.MaxStgCap-load) > 1e-9 {
		t.Errorf("Analyze: buffers %d, max stage cap %g fF, want 1 and %g", rep.Buffers, rep.MaxStgCap, load)
	}
}

// Buffers isolate downstream capacitance: adding load behind a buffer must
// not change the delay of a sibling branch before the buffer.
func TestBufferIsolatesCap(t *testing.T) {
	lib := liberty.Default()
	tc := tech.Default28nm()

	build := func(extraLoad float64) float64 {
		tr := tree.New(geom.Pt(0, 0))
		fork := tree.NewNode(tree.Steiner, geom.Pt(10, 0))
		tr.Root.AddChild(fork)
		s1 := tree.NewNode(tree.Sink, geom.Pt(10, 20))
		s1.PinCap = 2
		s1.SinkIdx = 0
		fork.AddChild(s1)
		buf := tree.NewNode(tree.Buffer, geom.Pt(20, 0))
		buf.BufCell = "CLKBUFX2"
		buf.PinCap = lib.Cell("CLKBUFX2").InputCap
		fork.AddChild(buf)
		s2 := tree.NewNode(tree.Sink, geom.Pt(20+extraLoad, 0))
		s2.PinCap = 2
		s2.SinkIdx = 1
		buf.AddChild(s2)
		rep, err := Analyze(tr, lib, tc, 10)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MinLatency // the unbuffered sibling s1 is the fastest sink
	}
	if a, b := build(10), build(100); math.Abs(a-b) > 1e-9 {
		t.Errorf("sibling latency changed with post-buffer load: %g vs %g", a, b)
	}
}

func TestSlewDegradesAlongWire(t *testing.T) {
	lib := liberty.Default()
	tc := tech.Default28nm()

	slewAt := func(length float64) float64 {
		tr := tree.New(geom.Pt(0, 0))
		buf := tree.NewNode(tree.Buffer, geom.Pt(0, 0))
		buf.BufCell = "CLKBUFX8"
		buf.PinCap = lib.Cell("CLKBUFX8").InputCap
		tr.Root.AddChild(buf)
		s := tree.NewNode(tree.Sink, geom.Pt(length, 0))
		s.PinCap = 2
		s.SinkIdx = 0
		buf.AddChild(s)
		rep, err := Analyze(tr, lib, tc, 10)
		if err != nil {
			t.Fatal(err)
		}
		return rep.MaxSlew
	}
	if s50, s300 := slewAt(50), slewAt(300); s300 <= s50 {
		t.Errorf("slew should degrade with wire length: %g vs %g", s50, s300)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	lib := liberty.Default()
	tc := tech.Default28nm()
	if _, err := Analyze(nil, lib, tc, 10); err == nil {
		t.Error("nil tree should error")
	}
	tr := tree.New(geom.Pt(0, 0))
	if _, err := Analyze(tr, lib, tc, 10); err == nil {
		t.Error("sinkless tree should error")
	}
	tr2, _ := bufferedChain(lib)
	tr2.Buffers()[0].BufCell = "NOPE"
	if _, err := Analyze(tr2, lib, tc, 10); err == nil {
		t.Error("unknown buffer cell should error")
	}
}
