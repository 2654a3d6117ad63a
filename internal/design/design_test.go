package design

import (
	"strings"
	"testing"

	"sllt/internal/geom"
	"sllt/internal/lefdef"
)

func sampleLEF(t *testing.T) *lefdef.LEF {
	t.Helper()
	lef, err := lefdef.ParseLEF(`
VERSION 5.8 ;
UNITS
  DATABASE MICRONS 1000 ;
END UNITS
MACRO DFFQX1
  CLASS CORE ;
  SIZE 2.5 BY 1.8 ;
  PIN CK
    DIRECTION INPUT ;
    USE CLOCK ;
    CAPACITANCE 1.2 ;
  END CK
END DFFQX1
END LIBRARY`)
	if err != nil {
		t.Fatal(err)
	}
	return lef
}

func sampleDEF(t *testing.T) *lefdef.DEF {
	t.Helper()
	def, err := lefdef.ParseDEF(`
VERSION 5.8 ;
DESIGN demo ;
UNITS DISTANCE MICRONS 1000 ;
DIEAREA ( 0 0 ) ( 50000 50000 ) ;
COMPONENTS 2 ;
  - ff_a DFFQX1 + PLACED ( 10000 10000 ) N ;
  - ff_b DFFQX1 + PLACED ( 40000 40000 ) N ;
END COMPONENTS
PINS 1 ;
  - clk + NET clk + DIRECTION INPUT + USE CLOCK + PLACED ( 0 25000 ) N ;
END PINS
NETS 1 ;
  - clk ( PIN clk ) ( ff_a CK ) ( ff_b CK ) + USE CLOCK ;
END NETS
END DESIGN`)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func TestFromLEFDEF(t *testing.T) {
	d, err := FromLEFDEF(sampleLEF(t), sampleDEF(t), "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "demo" || d.ClockNet != "clk" {
		t.Errorf("identity: %s %s", d.Name, d.ClockNet)
	}
	if !d.ClockRoot.Eq(geom.Pt(0, 25)) {
		t.Errorf("clock root = %v", d.ClockRoot)
	}
	if d.NumFFs() != 2 {
		t.Fatalf("FFs = %d", d.NumFFs())
	}
	net := d.Net()
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(net.Sinks) != 2 || net.Sinks[0].Cap != 1.2 {
		t.Errorf("net sinks = %+v", net.Sinks)
	}
	if !net.Source.Eq(d.ClockRoot) {
		t.Error("net source != clock root")
	}
}

func TestFromLEFDEFErrors(t *testing.T) {
	lef, def := sampleLEF(t), sampleDEF(t)
	if _, err := FromLEFDEF(lef, def, "nosuch"); err == nil {
		t.Error("missing net should error")
	}
	// Net without IO pin: no clock root.
	def2 := sampleDEF(t)
	def2.Nets[0].Conns = def2.Nets[0].Conns[1:]
	if _, err := FromLEFDEF(lef, def2, "clk"); err == nil {
		t.Error("net without IO pin should error")
	}
	// Unknown macro on the clock net.
	def3 := sampleDEF(t)
	def3.Components[0].Macro = "MYSTERY"
	if _, err := FromLEFDEF(lef, def3, "clk"); err == nil {
		t.Error("unknown macro should error")
	}
}

// TestFromLEFDEFRejectsBadClockNet pins the three clock nets that would
// otherwise build a wrong design without a word: each must fail with an
// error that names what is wrong.
func TestFromLEFDEFRejectsBadClockNet(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(def *lefdef.DEF)
		wants []string
	}{
		{"unlisted component", func(def *lefdef.DEF) {
			def.Nets[0].Conns = append(def.Nets[0].Conns, lefdef.Conn{Comp: "ff_ghost", Pin: "CK"})
		}, []string{"ff_ghost", "COMPONENTS"}},
		{"unplaced sink", func(def *lefdef.DEF) {
			def.Components[1].Status = lefdef.Unplaced
		}, []string{"ff_b", "PLACED"}},
		{"undeclared pin", func(def *lefdef.DEF) {
			def.Nets[0].Conns[1].Pin = "CLK"
		}, []string{"CLK", "ff_a", "DFFQX1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			def := sampleDEF(t)
			tc.edit(def)
			d, err := FromLEFDEF(sampleLEF(t), def, "clk")
			if err == nil {
				t.Fatalf("FromLEFDEF accepted the net: %d sinks", d.NumFFs())
			}
			for _, w := range tc.wants {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %q", err, w)
				}
			}
		})
	}
}

func TestUtilization(t *testing.T) {
	d, err := FromLEFDEF(sampleLEF(t), sampleDEF(t), "clk")
	if err != nil {
		t.Fatal(err)
	}
	util := d.Utilization(func(m string) float64 {
		if m == "DFFQX1" {
			return 4.5
		}
		return 0
	})
	want := 2 * 4.5 / (50.0 * 50.0)
	if diff := util - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("util = %g, want %g", util, want)
	}
}
