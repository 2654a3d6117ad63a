package cts

import (
	"math"
	"os"
	"strings"
	"testing"

	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/geom"
	"sllt/internal/lefdef"
)

// TestExportDEFRoundTrip exports a synthesized tree, re-parses the DEF and
// checks its clock nets: every connection names a design instance or an
// inserted buffer, and every sink clock pin and buffer input is loaded
// exactly once. The second input puts the sinks under a hierarchy
// ("core/u1/ff_00042"), whose names hold the separator a leaf name joins
// instance and pin with.
func TestExportDEFRoundTrip(t *testing.T) {
	for _, hier := range []string{"", "core/u1/"} {
		t.Run("prefix="+hier, func(t *testing.T) {
			spec := designgen.Spec{Name: "exp", Insts: 1000, FFs: 200, Util: 0.6}
			d := designgen.Generate(spec, 9)
			for i := range d.Insts {
				d.Insts[i].Name = hier + d.Insts[i].Name
			}
			opts := DefaultOptions()
			opts.SAIters = 50
			res, err := Run(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			out := ExportDEF(d, res)
			again, err := lefdef.ParseDEF(out.WriteDEF())
			if err != nil {
				t.Fatalf("re-parse: %v", err)
			}
			// Components: originals plus one per buffer.
			if got, want := len(again.Components), len(d.Insts)+res.Report.Buffers; got != want {
				t.Errorf("components = %d, want %d", got, want)
			}
			comps := map[string]bool{"PIN": true}
			for _, c := range again.Components {
				comps[c.Name] = true
			}
			// Every FF clock pin and every buffer input appears on exactly one net.
			loads := map[string]int{}
			for _, n := range again.Nets {
				for _, c := range n.Conns {
					if !comps[c.Comp] {
						t.Fatalf("net %s connects %s/%s: no such component", n.Name, c.Comp, c.Pin)
					}
				}
				for _, c := range n.Conns[1:] {
					loads[c.Comp+"/"+c.Pin]++
				}
			}
			if len(loads) != spec.FFs+res.Report.Buffers {
				t.Errorf("distinct loads = %d, want %d", len(loads), spec.FFs+res.Report.Buffers)
			}
			for _, s := range d.Net().Sinks {
				if loads[s.Name] != 1 {
					t.Errorf("sink pin %s on %d nets, want 1", s.Name, loads[s.Name])
				}
			}
			for k, cnt := range loads {
				if cnt != 1 {
					t.Errorf("load %s on %d nets", k, cnt)
				}
			}
			// Routed geometry: total routed length matches the tree's wirelength.
			var routed float64
			for i := range again.Nets {
				routed += again.Nets[i].RoutedLength()
			}
			if math.Abs(routed-res.Report.WL) > res.Report.WL*0.001+1 {
				t.Errorf("routed length %.1f != tree wirelength %.1f", routed, res.Report.WL)
			}
		})
	}
}

type exportFailWriter struct{ wrote bool }

func (w *exportFailWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return 0, os.ErrClosed
}

// TestExportDEFWriter pins the checked exporter to the in-memory renderer
// byte for byte and checks that its output re-parses.
func TestExportDEFWriter(t *testing.T) {
	d, res := exportFlow(t)
	var sb strings.Builder
	out, err := ExportDEFWriter(&sb, d, res)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != out.WriteDEF() {
		t.Error("streamed DEF differs from WriteDEF rendering")
	}
	if _, err := lefdef.ParseDEF(sb.String()); err != nil {
		t.Errorf("exported DEF does not re-parse: %v", err)
	}
}

// TestExportDEFWriterErrors covers the checked exporter's defensive
// boundary: every malformed input comes back as a descriptive error, never
// a panic, before a single byte is written, and a writer failure comes
// back wrapped as an export error.
func TestExportDEFWriterErrors(t *testing.T) {
	d, res := exportFlow(t)
	noSinks := &design.Design{
		Name: "nosinks", Die: geom.Rect{XHi: 10, YHi: 10}, DBU: 1000,
		ClockNet: "clk", ClockRoot: geom.Pt(5, 5),
	}
	noNet := &design.Design{
		Name: "nonet", Die: geom.Rect{XHi: 10, YHi: 10}, DBU: 1000,
	}
	// A result whose first sink leaf names a sink past the design's last.
	badIdx := &Result{Tree: res.Tree.Clone()}
	badIdx.Tree.Sinks()[0].SinkIdx = d.NumFFs()

	cases := []struct {
		name string
		d    *design.Design
		res  *Result
		want string
	}{
		{"nil design", nil, res, "nil design"},
		{"nil result", d, nil, "nil synthesis tree"},
		{"nil tree", d, &Result{}, "nil synthesis tree"},
		{"no clock net", noNet, res, "no clock net"},
		{"empty clock net", noSinks, res, "no sinks"},
		{"sink index out of range", d, badIdx, "index 60"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fw := &exportFailWriter{}
			_, err := ExportDEFWriter(fw, tc.d, tc.res)
			if err == nil {
				t.Fatalf("ExportDEFWriter succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %q, want it to contain %q", err, tc.want)
			}
			if fw.wrote {
				t.Error("validation failure still wrote bytes")
			}
		})
	}
	if _, err := ExportDEFWriter(&exportFailWriter{}, d, res); err == nil || !strings.Contains(err.Error(), "cts: export:") {
		t.Errorf("writer failure not wrapped: %v", err)
	}
}

// exportFlow runs the paper flow on a small generated design.
func exportFlow(t *testing.T) (*design.Design, *Result) {
	t.Helper()
	d := designgen.Generate(designgen.Spec{Name: "expw", Insts: 300, FFs: 60, Util: 0.6}, 13)
	opts := DefaultOptions()
	opts.SAIters = 20
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// TestExportKeepsPlacement runs the flow on a four-component DEF and checks
// that the post-CTS DEF writes each original component back with its own
// placement status and orientation: a PLACED FS sink, a FIXED S sink, an
// unplaced non-sink (no placement statement, not PLACED ( 0 0 )) and a
// PLACED FN non-sink. Re-parsing the output gives the input components.
func TestExportKeepsPlacement(t *testing.T) {
	const lef = `VERSION 5.8 ;
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
MACRO DFFQX1
  SIZE 2.5 BY 1.8 ;
  PIN CK
    DIRECTION INPUT ;
    USE CLOCK ;
    CAPACITANCE 1.2 ;
  END CK
END DFFQX1
MACRO INVX1
  SIZE 0.8 BY 1.8 ;
END INVX1
END LIBRARY
`
	src, err := os.ReadFile("../design/testdata/placement.def")
	if err != nil {
		t.Fatal(err)
	}
	def := string(src)
	_, block, _ := strings.Cut(def, "COMPONENTS 4 ;\n")
	block, _, _ = strings.Cut(block, "\nEND COMPONENTS")
	comps := strings.Split(block, "\n")
	if len(comps) != 4 {
		t.Fatalf("fixture lists %d components, want 4", len(comps))
	}
	d, err := design.Load(strings.NewReader(lef), strings.NewReader(def), "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := ExportDEFWriter(&sb, d, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(sb.String(), "\n")
	for _, want := range comps {
		found := false
		for _, l := range lines {
			found = found || l == want
		}
		if !found {
			t.Errorf("output has no line %q", want)
		}
	}
	in, err := lefdef.ParseDEF(def)
	if err != nil {
		t.Fatal(err)
	}
	out, err := lefdef.ParseDEF(sb.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	for i, c := range in.Components {
		if got := out.Components[i]; got != c {
			t.Errorf("component %d: %+v, want %+v", i, got, c)
		}
	}
}
