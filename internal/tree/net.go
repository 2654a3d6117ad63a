package tree

import (
	"fmt"

	"sllt/internal/geom"
)

// PinSink is a clock net load: a flip-flop or macro clock pin.
type PinSink struct {
	Name string
	Loc  geom.Point
	Cap  float64 // input pin capacitance, fF
}

// Net is a single clock net: one driver (source) and a set of load pins.
// All routing-topology algorithms in this repository consume a Net and
// produce a Tree.
type Net struct {
	Name   string
	Source geom.Point
	Sinks  []PinSink
}

// Validate reports the first problem with the net definition.
func (n *Net) Validate() error {
	if len(n.Sinks) == 0 {
		return fmt.Errorf("net %q: no sinks", n.Name)
	}
	// Sink locations come verbatim from the design description, never from
	// arithmetic, so duplicate detection wants exact-bit equality.
	//slltlint:ignore floatcmp exact-bit duplicate detection on verbatim input coordinates
	seen := make(map[geom.Point]string, len(n.Sinks))
	for _, s := range n.Sinks {
		if prev, dup := seen[s.Loc]; dup {
			return fmt.Errorf("net %q: sinks %q and %q share location %v", n.Name, prev, s.Name, s.Loc)
		}
		seen[s.Loc] = s.Name
	}
	return nil
}

// BBox returns the bounding box of the source and all sinks.
func (n *Net) BBox() geom.Rect {
	r := geom.RectOf(n.Source)
	for _, s := range n.Sinks {
		r = r.Grow(s.Loc)
	}
	return r
}

// SinkPoints returns the sink locations in order.
func (n *Net) SinkPoints() []geom.Point {
	pts := make([]geom.Point, len(n.Sinks))
	for i, s := range n.Sinks {
		pts[i] = s.Loc
	}
	return pts
}

// TotalPinCap returns the sum of sink pin capacitances in fF.
func (n *Net) TotalPinCap() float64 {
	var c float64
	for _, s := range n.Sinks {
		c += s.Cap
	}
	return c
}

// SinkNode returns a leaf node for sink i of the net.
func (n *Net) SinkNode(i int) *Node {
	s := n.Sinks[i]
	nd := NewNode(Sink, s.Loc)
	nd.Name = s.Name
	nd.PinCap = s.Cap
	nd.SinkIdx = i
	return nd
}
