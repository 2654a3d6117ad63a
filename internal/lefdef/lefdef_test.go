package lefdef

import (
	"strings"
	"testing"

	"sllt/internal/geom"
)

const sampleLEF = `
VERSION 5.8 ;
UNITS
  DATABASE MICRONS 1000 ;
END UNITS

# flip-flop with a clock pin
MACRO DFFQX1
  CLASS CORE ;
  SIZE 1.4 BY 1.8 ;
  PIN CK
    DIRECTION INPUT ;
    USE CLOCK ;
    CAPACITANCE 1.2 ;
  END CK
  PIN D
    DIRECTION INPUT ;
    USE SIGNAL ;
    CAPACITANCE 0.8 ;
  END D
  PIN Q
    DIRECTION OUTPUT ;
  END Q
END DFFQX1

MACRO CLKBUFX4
  CLASS CORE ;
  SIZE 1.0 BY 1.6 ;
  PIN A
    DIRECTION INPUT ;
    CAPACITANCE 1.8 ;
  END A
  PIN Y
    DIRECTION OUTPUT ;
  END Y
END CLKBUFX4

END LIBRARY
`

const sampleDEF = `
VERSION 5.8 ;
DESIGN demo ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 100000 80000 ) ;

COMPONENTS 3 ;
  - ff_1 DFFQX1 + PLACED ( 10000 20000 ) N ;
  - ff_2 DFFQX1 + PLACED ( 50000 60000 ) FS ;
  - u_logic NAND2X1 + PLACED ( 30000 30000 ) N ;
END COMPONENTS

PINS 1 ;
  - clk + NET clk + DIRECTION INPUT + USE CLOCK + PLACED ( 0 40000 ) N ;
END PINS

NETS 1 ;
  - clk ( PIN clk ) ( ff_1 CK ) ( ff_2 CK ) + USE CLOCK ;
END NETS

END DESIGN
`

func TestParseLEF(t *testing.T) {
	lef, err := ParseLEF(sampleLEF)
	if err != nil {
		t.Fatal(err)
	}
	if lef.DBU != 1000 {
		t.Errorf("DBU = %d", lef.DBU)
	}
	if len(lef.Macros) != 2 {
		t.Fatalf("macros = %d", len(lef.Macros))
	}
	ff := lef.FindMacro("DFFQX1")
	if ff == nil {
		t.Fatal("DFFQX1 missing")
	}
	if ff.W != 1.4 || ff.H != 1.8 || ff.Class != "CORE" {
		t.Errorf("DFFQX1 = %+v", ff)
	}
	ck := ff.ClockPin()
	if ck == nil || ck.Name != "CK" || ck.Cap != 1.2 {
		t.Errorf("clock pin = %+v", ck)
	}
	if lef.FindMacro("CLKBUFX4").ClockPin() != nil {
		t.Error("buffer should have no clock-use pin")
	}
}

func TestParseDEF(t *testing.T) {
	def, err := ParseDEF(sampleDEF)
	if err != nil {
		t.Fatal(err)
	}
	if def.Design != "demo" || def.DBU != 1000 {
		t.Errorf("header: %s %d", def.Design, def.DBU)
	}
	if def.Die.XHi != 100 || def.Die.YHi != 80 {
		t.Errorf("die = %+v", def.Die)
	}
	if len(def.Components) != 3 {
		t.Fatalf("components = %d", len(def.Components))
	}
	ff1 := def.FindComponent("ff_1")
	if ff1 == nil || !ff1.Loc.Eq(geom.Pt(10, 20)) || ff1.Status != Placed {
		t.Errorf("ff_1 = %+v", ff1)
	}
	if ff2 := def.FindComponent("ff_2"); ff2.Orient != "FS" {
		t.Errorf("ff_2 orient = %q", ff2.Orient)
	}
	pin := def.FindPin("clk")
	if pin == nil || pin.Use != "CLOCK" || !pin.Loc.Eq(geom.Pt(0, 40)) {
		t.Errorf("clk pin = %+v", pin)
	}
	net := def.FindNet("clk")
	if net == nil || len(net.Conns) != 3 || net.Use != "CLOCK" {
		t.Fatalf("clk net = %+v", net)
	}
	if net.Conns[0].Comp != "PIN" || net.Conns[0].Pin != "clk" {
		t.Errorf("conn 0 = %+v", net.Conns[0])
	}
	if net.Conns[1].Comp != "ff_1" || net.Conns[1].Pin != "CK" {
		t.Errorf("conn 1 = %+v", net.Conns[1])
	}
}

func TestLEFRoundTrip(t *testing.T) {
	lef, err := ParseLEF(sampleLEF)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseLEF(lef.WriteLEF())
	if err != nil {
		t.Fatalf("re-parse emitted LEF: %v", err)
	}
	if len(again.Macros) != len(lef.Macros) {
		t.Fatalf("round trip lost macros: %d != %d", len(again.Macros), len(lef.Macros))
	}
	for i, m := range lef.Macros {
		m2 := again.Macros[i]
		if m.Name != m2.Name || m.W != m2.W || m.H != m2.H || len(m.Pins) != len(m2.Pins) {
			t.Errorf("macro %s changed in round trip", m.Name)
		}
	}
}

func TestDEFRoundTrip(t *testing.T) {
	def, err := ParseDEF(sampleDEF)
	if err != nil {
		t.Fatal(err)
	}
	out := def.WriteDEF()
	again, err := ParseDEF(out)
	if err != nil {
		t.Fatalf("re-parse emitted DEF: %v\n%s", err, out)
	}
	if again.Design != def.Design || len(again.Components) != len(def.Components) ||
		len(again.Pins) != len(def.Pins) || len(again.Nets) != len(def.Nets) {
		t.Fatal("round trip changed structure")
	}
	if !again.FindComponent("ff_2").Loc.Eq(geom.Pt(50, 60)) {
		t.Error("component location changed in round trip")
	}
	if len(again.FindNet("clk").Conns) != 3 {
		t.Error("net conns changed in round trip")
	}
}

func TestParseDEFErrors(t *testing.T) {
	if _, err := ParseDEF("VERSION 5.8 ;"); err == nil {
		t.Error("missing DESIGN should error")
	}
	bad := strings.Replace(sampleDEF, "- ff_1", "ff_1", 1)
	if _, err := ParseDEF(bad); err == nil {
		t.Error("malformed COMPONENTS should error")
	}
}

// TestParseMalformedNumber checks every site that reads a number: a token
// strconv.ParseFloat rejects fails the parse with an error naming the
// section, the entry and the token, where it used to read as 0, and the
// legacy oracle parsers agree.
func TestParseMalformedNumber(t *testing.T) {
	for _, tc := range []struct {
		name, file, from, to, want string
	}{
		{"die area", sampleDEF, "( 100000 80000 )", "( 100000 8OOOO )", `def: DIEAREA: bad number "8OOOO"`},
		{"placed component", sampleDEF, "( 10000 20000 )", "( 1O000 20000 )", `def: COMPONENTS ff_1: bad number "1O000"`},
		{"fixed component", sampleDEF, "PLACED ( 50000 60000 )", "FIXED ( 50000 6e )", `def: COMPONENTS ff_2: bad number "6e"`},
		{"io pin", sampleDEF, "PLACED ( 0 40000 )", "PLACED ( O 40000 )", `def: PINS clk: bad number "O"`},
		{"route point", sampleDEF, "+ USE CLOCK ;", "+ ROUTED metal4 ( 0 40000 ) ( 1O000 * ) ;", `def: NETS clk: bad number "1O000"`},
		{"macro size", sampleLEF, "SIZE 1.0 BY 1.6", "SIZE 1.0 BY 1,6", `lef: MACRO CLKBUFX4: bad number "1,6"`},
		{"pin capacitance", sampleLEF, "CAPACITANCE 1.2", "CAPACITANCE 1e999", `lef: MACRO DFFQX1 PIN CK: bad number "1e999"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := strings.Replace(tc.file, tc.from, tc.to, 1)
			if src == tc.file {
				t.Fatalf("%q not in the sample", tc.from)
			}
			var err error
			if tc.file == sampleLEF {
				_, err = ParseLEF(src)
				diffLEF(t, tc.name, src)
			} else {
				_, err = ParseDEF(src)
				diffDEF(t, tc.name, src)
			}
			if err == nil || err.Error() != tc.want {
				t.Errorf("error = %v, want %s", err, tc.want)
			}
		})
	}
}
