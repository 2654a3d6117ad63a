// Package designgen synthesizes placed designs matching the statistics of
// the paper's benchmark set (Table 4): instance count, flip-flop count and
// utilization. The paper used Innovus placements of ISCAS'89 / OpenCores /
// OpenLane / ysyx designs; without those inputs, this generator reproduces
// each design's workload scale and spatial character — flip-flops placed in
// register clusters, logic filling the rest — and emits it as LEF/DEF-lite,
// so the full flow (parse → design DB → CTS → DEF out) is exercised exactly
// as it would be on a real placement.
package designgen

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"sllt/internal/design"
	"sllt/internal/geom"
	"sllt/internal/lefdef"
	"sllt/internal/liberty"
)

// Spec describes one benchmark design to synthesize.
type Spec struct {
	Name  string
	Insts int     // total instances
	FFs   int     // flip-flops (clock sinks)
	Util  float64 // placement utilization
}

// Table4 returns the paper's design statistics (its Table 4), in paper
// order.
func Table4() []Spec {
	return []Spec{
		{"s38584", 7510, 1248, 0.60},
		{"s38417", 6428, 1564, 0.61},
		{"s35932", 6113, 1728, 0.58},
		{"salsa20", 13706, 2375, 0.68},
		{"ethernet", 39945, 10015, 0.61},
		{"vga_lcd", 60541, 16902, 0.55},
		{"ysyx_0", 86933, 18487, 0.93},
		{"ysyx_1", 93907, 19090, 0.868},
		{"ysyx_2", 139178, 27078, 0.814},
		{"ysyx_3", 139956, 22810, 0.722},
	}
}

// FindSpec returns the Table 4 spec with the given name.
func FindSpec(name string) (Spec, error) {
	for _, s := range Table4() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("designgen: unknown design %q", name)
}

// Cell areas (µm², 28 nm-class).
const (
	logicArea = 1.5
	ffArea    = 4.5
	ffW       = 2.5
	ffH       = 1.8
	logicW    = 1.0
	logicH    = 1.5
	ffPinCap  = 0.5 // fF — design FF clock pins (Table 6/7 calibration)
)

// Generate synthesizes a placed design for the spec. Deterministic for a
// given spec and seed.
func Generate(spec Spec, seed int64) *design.Design {
	rng := rand.New(rand.NewSource(seed))
	totalArea := float64(spec.Insts-spec.FFs)*logicArea + float64(spec.FFs)*ffArea
	dieArea := totalArea / spec.Util
	side := math.Sqrt(dieArea)

	d := &design.Design{
		Name:      spec.Name,
		Die:       geom.Rect{XLo: 0, YLo: 0, XHi: side, YHi: side},
		DBU:       1000,
		ClockNet:  "clk",
		ClockRoot: geom.Pt(0, side/2), // clock enters at the left die edge
	}

	// Flip-flops cluster into register banks: the spatial structure real
	// placers produce and the one that makes partitioning interesting.
	nClusters := spec.FFs/64 + 1
	centers := make([]geom.Point, nClusters)
	for i := range centers {
		centers[i] = geom.Pt(rng.Float64()*side, rng.Float64()*side)
	}
	sigma := side / 18
	nFF := spec.FFs
	if nFF < 0 {
		nFF = 0
	}
	nLogic := spec.Insts - spec.FFs
	if nLogic < 0 {
		nLogic = 0
	}
	insts := make([]design.Instance, nFF+nLogic)
	d.Insts = insts
	used := make(map[[2]int]bool, nFF)
	for i := 0; i < spec.FFs; i++ {
		c := centers[rng.Intn(nClusters)]
		var p geom.Point
		for try := 0; ; try++ {
			p = geom.Pt(
				clampF(c.X+rng.NormFloat64()*sigma, 1, side-1),
				clampF(c.Y+rng.NormFloat64()*sigma, 1, side-1),
			)
			// Snap to a placement grid so no two FFs overlap exactly.
			p = geom.Pt(math.Round(p.X/0.2)*0.2, math.Round(p.Y/0.2)*0.2)
			key := [2]int{int(p.X * 5), int(p.Y * 5)}
			if !used[key] {
				used[key] = true
				break
			}
			if try > 64 {
				c = geom.Pt(rng.Float64()*side, rng.Float64()*side)
			}
		}
		insts[i] = design.Instance{
			Component:   lefdef.Component{Name: fmt.Sprintf("ff_%05d", i), Macro: "DFFQX1", Loc: p},
			IsSink:      true,
			ClockPin:    "CK",
			ClockPinCap: ffPinCap,
		}
	}
	// Logic instances: uniform filler. They carry no clock pins but define
	// the utilization and the DEF's scale.
	for i := 0; i < nLogic; i++ {
		insts[nFF+i] = design.Instance{Component: lefdef.Component{
			Name:  fmt.Sprintf("u_%06d", i),
			Macro: "NAND2X1",
			Loc:   geom.Pt(rng.Float64()*side, rng.Float64()*side),
		}}
	}
	return d
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// LEF returns the LEF-lite library covering every macro the generator (and
// the CTS buffer inserter) uses.
func LEF(bufferMacros []lefdef.Macro) *lefdef.LEF {
	lef := &lefdef.LEF{Version: "5.8", DBU: 1000, Macros: []*lefdef.Macro{
		{
			Name: "DFFQX1", Class: "CORE", W: ffW, H: ffH,
			Pins: []lefdef.MacroPin{
				{Name: "CK", Direction: "INPUT", Use: "CLOCK", Cap: ffPinCap},
				{Name: "D", Direction: "INPUT", Use: "SIGNAL", Cap: 0.8},
				{Name: "Q", Direction: "OUTPUT", Use: "SIGNAL"},
			},
		},
		{
			Name: "NAND2X1", Class: "CORE", W: logicW, H: logicH,
			Pins: []lefdef.MacroPin{
				{Name: "A", Direction: "INPUT", Use: "SIGNAL", Cap: 0.8},
				{Name: "B", Direction: "INPUT", Use: "SIGNAL", Cap: 0.8},
				{Name: "Y", Direction: "OUTPUT", Use: "SIGNAL"},
			},
		},
	}}
	for i := range bufferMacros {
		m := bufferMacros[i]
		lef.Macros = append(lef.Macros, &m)
	}
	return lef
}

// BufferMacros converts a buffer library into LEF macros so post-CTS DEF
// files (which instantiate the buffers) round-trip through the parsers.
func BufferMacros(lib *liberty.Library) []lefdef.Macro {
	var out []lefdef.Macro
	for _, c := range lib.Cells {
		h := 1.6
		out = append(out, lefdef.Macro{
			Name: c.Name, Class: "CORE", W: c.Area / h, H: h,
			Pins: []lefdef.MacroPin{
				{Name: "A", Direction: "INPUT", Use: "CLOCK", Cap: c.InputCap},
				{Name: "Y", Direction: "OUTPUT", Use: "CLOCK"},
			},
		})
	}
	return out
}

// DEF returns the design's DEF (Design.DEF) with the flat clock net: the
// IO pin, then each sink's clock pin in instance order.
func DEF(d *design.Design) *lefdef.DEF {
	def := d.DEF()
	clock := lefdef.Net{Name: d.ClockNet, Use: "CLOCK",
		Conns: []lefdef.Conn{{Comp: "PIN", Pin: d.ClockNet}}}
	for i := range d.Insts {
		if inst := &d.Insts[i]; inst.IsSink {
			clock.Conns = append(clock.Conns, lefdef.Conn{Comp: inst.Name, Pin: inst.ClockPin})
		}
	}
	def.Nets = []lefdef.Net{clock}
	return def
}

// StreamDEF renders DEF(d) to w in bounded chunks, byte-identical to
// DEF(d).WriteDEF() but without ever materializing the rendered text — the
// way multi-hundred-megabyte benchmark tiers reach disk.
func StreamDEF(w io.Writer, d *design.Design) error {
	_, err := DEF(d).WriteTo(w)
	return err
}
