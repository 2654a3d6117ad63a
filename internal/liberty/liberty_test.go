package liberty

import (
	"math"
	"testing"
)

// slewDependentLib is one hand-written buffer whose transition tables,
// unlike GenerateSource's, depend on input slew:
//
//	cell_rise = cell_fall             = 0.1·slew + 0.5·load + 9
//	rise_transition = fall_transition = 0.2·slew + 0.8·load + 5
//
// The fit must keep the slew slope out of SC and fold it into SI at
// nominalInSlew: SC = 0.8 ps/fF and SI = 5 + 0.2·20 = 9 ps.
const slewDependentLib = `library (hand) {
  time_unit : "1ps";
  capacitive_load_unit (1, ff);
  lu_table_template (delay_3x3) {
    variable_1 : input_net_transition;
    variable_2 : total_output_net_capacitance;
    index_1 ("10, 40, 100");
    index_2 ("4, 20, 80");
  }
  cell (HANDBUF) {
    area : 1.5;
    pin (A) {
      direction : input;
      capacitance : 2;
    }
    pin (Y) {
      direction : output;
      max_capacitance : 100;
      function : "A";
      timing () {
        related_pin : "A";
        cell_rise (delay_3x3) {
          index_1 ("10, 40, 100");
          index_2 ("4, 20, 80");
          values ("12, 20, 50", \
                  "15, 23, 53", \
                  "21, 29, 59");
        }
        cell_fall (delay_3x3) {
          index_1 ("10, 40, 100");
          index_2 ("4, 20, 80");
          values ("12, 20, 50", \
                  "15, 23, 53", \
                  "21, 29, 59");
        }
        rise_transition (delay_3x3) {
          index_1 ("10, 40, 100");
          index_2 ("4, 20, 80");
          values ("10.2, 23, 71", \
                  "16.2, 29, 77", \
                  "28.2, 41, 89");
        }
        fall_transition (delay_3x3) {
          index_1 ("10, 40, 100");
          index_2 ("4, 20, 80");
          values ("10.2, 23, 71", \
                  "16.2, 29, 77", \
                  "28.2, 41, 89");
        }
      }
    }
  }
}
`

// TestRoundTripRecoverscoefficients parses libraries whose tables sample a
// linear model exactly, so the least-squares fit must recover the model's
// coefficients almost exactly. SlewSlope is the generating transition
// tables' input-slew slope, which the fit folds into SI at nominalInSlew.
func TestRoundTripRecoverscoefficients(t *testing.T) {
	type want struct {
		CellSpec
		SlewSlope float64 // ps of output slew per ps of input slew
	}
	var synth []want
	for _, s := range Default28nmSpecs() {
		synth = append(synth, want{CellSpec: s})
	}
	inputs := []struct {
		name, src string
		cells     []want
	}{
		{"sim28", GenerateSource("sim28", Default28nmSpecs()), synth},
		{"hand", slewDependentLib, []want{{
			CellSpec: CellSpec{Name: "HANDBUF", InputCap: 2, MaxCap: 100, Area: 1.5,
				WS: 0.1, WC: 0.5, WI: 9, SC: 0.8, SI: 5},
			SlewSlope: 0.2,
		}}},
	}
	for _, in := range inputs {
		lib, err := Parse(in.src)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if lib.Name != in.name {
			t.Errorf("library name = %q, want %q", lib.Name, in.name)
		}
		if len(lib.Cells) != len(in.cells) {
			t.Fatalf("%s: parsed %d cells, want %d", in.name, len(lib.Cells), len(in.cells))
		}
		for _, s := range in.cells {
			c := lib.Cell(s.Name)
			if c == nil {
				t.Fatalf("cell %s missing", s.Name)
			}
			checks := []struct {
				name      string
				got, want float64
				tol       float64
			}{
				{"WS", c.WS, s.WS, 1e-6},
				{"WC", c.WC, s.WC, 1e-6},
				{"WI", c.WI, s.WI, 1e-4},
				{"InputCap", c.InputCap, s.InputCap, 1e-9},
				{"MaxCap", c.MaxCap, s.MaxCap, 1e-9},
				{"Area", c.Area, s.Area, 1e-9},
				{"SC", c.SC, s.SC, 1e-6},
				{"SI", c.SI, s.SI + s.SlewSlope*nominalInSlew, 1e-4},
			}
			for _, ck := range checks {
				if math.Abs(ck.got-ck.want) > ck.tol {
					t.Errorf("%s.%s = %g, want %g", s.Name, ck.name, ck.got, ck.want)
				}
			}
		}
	}
}

func TestLibraryOrderingAndSelection(t *testing.T) {
	lib := Default()
	for i := 1; i < len(lib.Cells); i++ {
		if lib.Cells[i].InputCap < lib.Cells[i-1].InputCap {
			t.Fatal("cells not sorted by input cap")
		}
	}
	if lib.Smallest().Name != "CLKBUFX2" || lib.Strongest().Name != "CLKBUFX16" {
		t.Errorf("smallest/strongest = %s/%s", lib.Smallest().Name, lib.Strongest().Name)
	}
}

func TestInsertionDelayLowerBound(t *testing.T) {
	lib := Default()
	// Eq (7): min WC * load + min WI. In the default family the X16 has the
	// smallest WC (0.20) and the X2 the smallest WI (8).
	want := 0.20*100 + 8
	if got := lib.InsertionDelayLowerBound(100); math.Abs(got-want) > 1e-6 {
		t.Errorf("lower bound = %g, want %g", got, want)
	}
	// The bound must never exceed any real cell's delay at zero slew.
	for _, c := range lib.Cells {
		for _, load := range []float64{1, 10, 50, 200} {
			if lb := lib.InsertionDelayLowerBound(load); lb > c.Delay(0, load)+1e-9 {
				t.Errorf("lower bound %g exceeds %s delay %g at load %g", lb, c.Name, c.Delay(0, load), load)
			}
		}
	}
}

func TestParseTolerantSyntax(t *testing.T) {
	src := `/* header comment */
library (tiny) {
  time_unit : "1ps";
  cell (BUF1) {
    area : 2.5;
    pin (A) { direction : input; capacitance : 1.5; }
    pin (Y) {
      direction : output;
      max_capacitance : 64;
      timing () {
        related_pin : "A";
        cell_rise (scalar) { values ("17.5"); }
      }
    }
  }
  cell (NOTABUF) {
    pin (A) { direction : input; capacitance : 1; }
  }
}`
	lib, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Cells) != 1 {
		t.Fatalf("cells = %d, want 1 (non-buffer skipped)", len(lib.Cells))
	}
	c := lib.Cells[0]
	if c.WI != 17.5 || c.WS != 0 || c.WC != 0 {
		t.Errorf("scalar fit: WS=%g WC=%g WI=%g", c.WS, c.WC, c.WI)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`library (x) {`,
		`cell (y) { }`,
		`library (x) { cell (b) { pin (A) { direction : input; } pin (Y) { direction : output; } } }`,
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestDelayAndSlewEval(t *testing.T) {
	c := &BufferCell{WS: 0.1, WC: 2, WI: 10, SC: 1, SI: 5}
	if got := c.Delay(20, 15); got != 0.1*20+2*15+10 {
		t.Errorf("Delay = %g", got)
	}
	if got := c.OutSlew(7); got != 12 {
		t.Errorf("OutSlew = %g", got)
	}
}
