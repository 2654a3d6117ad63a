package cts

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sllt/internal/design"
	"sllt/internal/geom"
	"sllt/internal/lefdef"
	"sllt/internal/tree"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenDesign is a tiny hand-placed design: four flip-flops in a square
// around a central clock root.
func goldenDesign() *design.Design {
	d := &design.Design{
		Name:      "golden",
		Die:       geom.Rect{XLo: 0, YLo: 0, XHi: 40, YHi: 40},
		DBU:       1000,
		ClockNet:  "clk",
		ClockRoot: geom.Pt(20, 20),
	}
	for i, p := range []geom.Point{
		geom.Pt(10, 10), geom.Pt(30, 10), geom.Pt(10, 30), geom.Pt(30, 30),
	} {
		d.Insts = append(d.Insts, design.Instance{
			Component: lefdef.Component{Name: "ff_" + string(rune('a'+i)), Macro: "DFFX1", Loc: p},
			IsSink:    true, ClockPin: "CK", ClockPinCap: 1.5,
		})
	}
	return d
}

// goldenTree hand-builds the synthesized tree for goldenDesign: one root
// buffer, two Steiner arms, the four sinks, with one snaked edge so the
// serpentine emission path is exercised.
func goldenTree(d *design.Design) *tree.Tree {
	t := tree.New(d.ClockRoot)
	buf := tree.NewNode(tree.Buffer, geom.Pt(20, 20))
	buf.BufCell = "CLKBUFX4"
	buf.PinCap = 3
	t.Root.AddChild(buf)
	left := tree.NewNode(tree.Steiner, geom.Pt(10, 20))
	right := tree.NewNode(tree.Steiner, geom.Pt(30, 20))
	buf.AddChild(left)
	buf.AddChild(right)
	net := d.Net()
	for i := range net.Sinks {
		s := net.SinkNode(i)
		if s.Loc.X < 20 {
			left.AddChild(s)
		} else {
			right.AddChild(s)
		}
	}
	// Snake the first left sink's wire by 4 µm.
	left.Children[0].EdgeLen += 4
	return t
}

// TestExportDEFGolden locks the exact DEF-lite text emitted for a small
// fixed net. The DEF is the CTS→routing interface; any drift in component
// ordering, net decomposition or routed geometry shows up here as a byte
// diff. Regenerate with `go test ./internal/cts -run Golden -update`.
func TestExportDEFGolden(t *testing.T) {
	d := goldenDesign()
	res := &Result{Tree: goldenTree(d)}
	got := ExportDEF(d, res).WriteDEF()
	path := filepath.Join("testdata", "export_golden.def")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("DEF output drifted from golden file %s;\nrerun with -update and review the diff\ngot %d bytes, want %d", path, len(got), len(want))
	}
}
