package designgen

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"sllt/internal/design"
	"sllt/internal/lefdef"
)

func TestTable4Specs(t *testing.T) {
	specs := Table4()
	if len(specs) != 10 {
		t.Fatalf("Table 4 has %d designs, want 10", len(specs))
	}
	if specs[0].Name != "s38584" || specs[9].Name != "ysyx_3" {
		t.Errorf("ordering: %s ... %s", specs[0].Name, specs[9].Name)
	}
	if _, err := FindSpec("ethernet"); err != nil {
		t.Error(err)
	}
	if _, err := FindSpec("nope"); err == nil {
		t.Error("unknown spec should error")
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	spec, _ := FindSpec("s38417")
	d := Generate(spec, 1)
	if len(d.Insts) != spec.Insts {
		t.Errorf("insts = %d, want %d", len(d.Insts), spec.Insts)
	}
	if d.NumFFs() != spec.FFs {
		t.Errorf("FFs = %d, want %d", d.NumFFs(), spec.FFs)
	}
	util := d.Utilization(func(m string) float64 {
		switch m {
		case "DFFQX1":
			return ffArea
		case "NAND2X1":
			return logicArea
		}
		return 0
	})
	if math.Abs(util-spec.Util) > 0.02 {
		t.Errorf("util = %.3f, want %.3f", util, spec.Util)
	}
	// All FFs inside the die, at distinct locations.
	seen := map[[2]float64]bool{}
	for i := range d.Insts {
		inst := &d.Insts[i]
		if !inst.IsSink {
			continue
		}
		if !d.Die.Contains(inst.Loc) {
			t.Fatalf("FF %s at %v outside die %+v", inst.Name, inst.Loc, d.Die)
		}
		key := [2]float64{inst.Loc.X, inst.Loc.Y}
		if seen[key] {
			t.Fatalf("duplicate FF location %v", inst.Loc)
		}
		seen[key] = true
	}
	if err := d.Net().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, _ := FindSpec("s35932")
	a := Generate(spec, 7)
	b := Generate(spec, 7)
	for i := range a.Insts {
		if !a.Insts[i].Loc.Eq(b.Insts[i].Loc) {
			t.Fatal("generation not deterministic")
		}
	}
	c := Generate(spec, 8)
	same := true
	for i := range a.Insts {
		if !a.Insts[i].Loc.Eq(c.Insts[i].Loc) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

// TestStreamDEFMatchesWriteDEF pins the streaming DEF renderer byte for
// byte against the in-memory one, and checks the streamed bytes re-parse to
// the same netlist through the streaming parser.
func TestStreamDEFMatchesWriteDEF(t *testing.T) {
	spec := Spec{Name: "stream", Insts: 600, FFs: 150, Util: 0.6}
	d := Generate(spec, 4)
	var sb strings.Builder
	if err := StreamDEF(&sb, d); err != nil {
		t.Fatal(err)
	}
	want := DEF(d).WriteDEF()
	if sb.String() != want {
		t.Fatal("StreamDEF output differs from WriteDEF")
	}
	a, err := lefdef.ParseDEF(want)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lefdef.ParseDEFReader(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("streamed DEF re-parses differently")
	}
}

// The generated design must survive the full LEF/DEF round trip and come
// back as an equivalent CTS problem.
func TestLEFDEFRoundTrip(t *testing.T) {
	spec := Spec{Name: "tiny", Insts: 300, FFs: 90, Util: 0.6}
	d := Generate(spec, 3)
	lefSrc := LEF(nil).WriteLEF()
	defSrc := DEF(d).WriteDEF()

	lef, err := lefdef.ParseLEF(lefSrc)
	if err != nil {
		t.Fatal(err)
	}
	def, err := lefdef.ParseDEF(defSrc)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := design.FromLEFDEF(lef, def, "clk")
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumFFs() != spec.FFs {
		t.Fatalf("round trip FFs = %d, want %d", d2.NumFFs(), spec.FFs)
	}
	n1, n2 := d.Net(), d2.Net()
	if len(n1.Sinks) != len(n2.Sinks) {
		t.Fatal("sink count changed")
	}
	// DBU rounding: locations match to 1/1000 µm.
	for i := range n1.Sinks {
		if n1.Sinks[i].Loc.Dist(n2.Sinks[i].Loc) > 0.002 {
			t.Fatalf("sink %d moved: %v -> %v", i, n1.Sinks[i].Loc, n2.Sinks[i].Loc)
		}
		if n2.Sinks[i].Cap != ffPinCap {
			t.Fatalf("sink %d cap = %g", i, n2.Sinks[i].Cap)
		}
	}
}
