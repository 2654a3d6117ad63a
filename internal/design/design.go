// Package design is the placement database that hierarchical CTS consumes:
// a die, placed instances with identified flip-flops, and the clock source.
// It is assembled from LEF (macro footprints and pin capacitances) plus DEF
// (placement and connectivity) via Load and FromLEFDEF, or synthesized
// directly by the designgen package, and written back by Design.DEF.
package design

import (
	"fmt"
	"io"

	"sllt/internal/geom"
	"sllt/internal/lefdef"
	"sllt/internal/tree"
)

// Instance is one placed cell: its DEF component (name, macro, location,
// placement status and orientation, which the design's DEF writes back as
// they came in; the zero values mean PLACED and N) and its clock pin.
type Instance struct {
	lefdef.Component
	// IsSink marks instances whose clock pin belongs to the CTS clock net.
	IsSink bool
	// ClockPin and ClockPinCap describe the clock input when IsSink.
	ClockPin    string
	ClockPinCap float64
}

// Design is a placed netlist ready for CTS.
type Design struct {
	Name     string
	Die      geom.Rect
	DBU      int
	Insts    []Instance
	ClockNet string
	// ClockRoot is where the clock enters the design (IO pin location).
	ClockRoot geom.Point
}

// NumFFs returns the number of clock sinks.
func (d *Design) NumFFs() int {
	n := 0
	for i := range d.Insts {
		if d.Insts[i].IsSink {
			n++
		}
	}
	return n
}

// Utilization returns placed cell area over die area, given a function that
// maps macro names to areas (µm²). Unknown macros count as 0.
func (d *Design) Utilization(areaOf func(macro string) float64) float64 {
	dieArea := d.Die.W() * d.Die.H()
	if dieArea <= 0 {
		return 0
	}
	var a float64
	for i := range d.Insts {
		a += areaOf(d.Insts[i].Macro)
	}
	return a / dieArea
}

// Net returns the flat clock net: source at the clock root, one sink per
// flip-flop clock pin.
func (d *Design) Net() *tree.Net {
	net := &tree.Net{Name: d.ClockNet, Source: d.ClockRoot}
	for i := range d.Insts {
		inst := &d.Insts[i]
		if !inst.IsSink {
			continue
		}
		net.Sinks = append(net.Sinks, tree.PinSink{
			Name: inst.Name + "/" + inst.ClockPin,
			Loc:  inst.Loc,
			Cap:  inst.ClockPinCap,
		})
	}
	return net
}

// Load ingests LEF and DEF text: it streams both inputs through the
// fixed-buffer parsers (lefdef.ParseLEFReader, ParseDEFReader) and builds
// the design with FromLEFDEF. A parser error comes back as the parser
// wrote it, already prefixed "lef:" or "def:".
func Load(lef, def io.Reader, clockNet string) (*Design, error) {
	l, err := lefdef.ParseLEFReader(lef)
	if err != nil {
		return nil, err
	}
	df, err := lefdef.ParseDEFReader(def)
	if err != nil {
		return nil, err
	}
	return FromLEFDEF(l, df, clockNet)
}

// DEF returns the design as DEF: the header, each instance's own component,
// the clock IO pin and no nets, which the caller adds. It is FromLEFDEF's
// inverse and the one place a design becomes DEF.
func (d *Design) DEF() *lefdef.DEF {
	def := &lefdef.DEF{
		Version:    "5.8",
		Design:     d.Name,
		DBU:        d.DBU,
		Die:        d.Die,
		Components: make([]lefdef.Component, len(d.Insts)),
		Pins: []lefdef.IOPin{{
			Name: d.ClockNet, Net: d.ClockNet, Direction: "INPUT", Use: "CLOCK", Loc: d.ClockRoot,
		}},
	}
	for i := range d.Insts {
		def.Components[i] = d.Insts[i].Component
	}
	return def
}

// FromLEFDEF builds a Design from parsed LEF and DEF. clockNet selects the
// net to synthesize; pass "" to use the first net with USE CLOCK (or, as a
// fallback, a net named "clk"). A clock net that would yield a wrong tree
// is an error, not a silent repair: a connection to a component the DEF
// does not list, a sink component without a PLACED or FIXED location, and
// a clock pin its macro does not declare are each rejected by name.
func FromLEFDEF(lef *lefdef.LEF, def *lefdef.DEF, clockNet string) (*Design, error) {
	d := &Design{Name: def.Design, Die: def.Die, DBU: def.DBU}

	net := def.FindNet(clockNet)
	if clockNet == "" {
		for i := range def.Nets {
			if def.Nets[i].Use == "CLOCK" {
				net = &def.Nets[i]
				break
			}
		}
		if net == nil {
			net = def.FindNet("clk")
		}
	}
	if net == nil {
		return nil, fmt.Errorf("design %s: clock net %q not found", def.Design, clockNet)
	}
	d.ClockNet = net.Name

	// Index the clock net's component pins: each component maps to its last
	// connection, which names its clock pin.
	onNet := make(map[string]int, len(net.Conns))
	rootFound := false
	for ci, c := range net.Conns {
		if c.Comp == "PIN" {
			src := def.FindPin(c.Pin)
			if src == nil {
				return nil, fmt.Errorf("design %s: net %s references missing IO pin %s", def.Design, net.Name, c.Pin)
			}
			d.ClockRoot = src.Loc
			rootFound = true
			continue
		}
		onNet[c.Comp] = ci
	}
	if !rootFound {
		return nil, fmt.Errorf("design %s: clock net %s has no IO pin (clock root)", def.Design, net.Name)
	}

	listed := make([]bool, len(net.Conns))
	d.Insts = make([]Instance, len(def.Components))
	for i := range def.Components {
		inst := &d.Insts[i]
		inst.Component = def.Components[i]
		if ci, ok := onNet[inst.Name]; ok {
			listed[ci] = true
			m := lef.FindMacro(inst.Macro)
			switch {
			case inst.Status == lefdef.Unplaced:
				return nil, fmt.Errorf("design %s: clock sink %s has no PLACED or FIXED location", def.Design, inst.Name)
			case m == nil:
				return nil, fmt.Errorf("design %s: component %s uses unknown macro %s", def.Design, inst.Name, inst.Macro)
			}
			inst.IsSink = true
			inst.ClockPin = net.Conns[ci].Pin
			declared := false
			for _, p := range m.Pins {
				if p.Name == inst.ClockPin {
					inst.ClockPinCap, declared = p.Cap, true
				}
			}
			if !declared {
				return nil, fmt.Errorf("design %s: clock net %s connects pin %s of component %s, which macro %s does not declare",
					def.Design, net.Name, inst.ClockPin, inst.Name, inst.Macro)
			}
		}
	}
	for _, c := range net.Conns {
		if c.Comp != "PIN" && !listed[onNet[c.Comp]] {
			return nil, fmt.Errorf("design %s: clock net %s connects component %s, which COMPONENTS does not list",
				def.Design, net.Name, c.Comp)
		}
	}
	if d.NumFFs() == 0 {
		return nil, fmt.Errorf("design %s: clock net %s drives no instances", def.Design, net.Name)
	}
	return d, nil
}
