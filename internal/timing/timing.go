// Package timing is the STA-lite engine: it propagates Elmore wire delay,
// PERI slew degradation and linear buffer delays (liberty.BufferCell,
// Equation 6 of the paper) through a buffered clock tree and reports the
// metrics the paper's Tables 6 and 7 compare: max latency, skew, buffer
// count and area, clock capacitance and wirelength.
package timing

import (
	"fmt"
	"math"

	"sllt/internal/liberty"
	"sllt/internal/tech"
	"sllt/internal/tree"
)

// Ln9 is the 10–90 % slew conversion factor for RC wires.
var Ln9 = math.Log(9) // unit: 1

// Report aggregates the timing and resource metrics of a clock tree.
type Report struct {
	MaxLatency float64 // unit: ps // slowest source-to-sink
	MinLatency float64 // unit: ps
	Skew       float64 // unit: ps // max - min
	MaxSlew    float64 // unit: ps // worst sink slew
	Buffers    int
	BufArea    float64 // unit: um^2
	ClockCap   float64 // unit: fF // wire + sink pins + buffer input pins
	WL         float64 // unit: um
	MaxStgCap  float64 // unit: fF // worst buffer stage load

	// SinkLatency maps sink index (tree.Node.SinkIdx) to its latency in ps.
	SinkLatency map[int]float64 // unit: ps
}

// Analyze runs STA over the tree. The clock source drives the first stage
// with the given input slew (sourceSlew, ps); buffers re-drive downstream
// stages. lib resolves buffer cells by Node.BufCell.
//
// Analyze is the flow's terminal stage: the report is a pure function of
// the tree and the library, so a cached replay keyed on both is sound.
//
// unit: sourceSlew ps -> _, _
func Analyze(t *tree.Tree, lib *liberty.Library, tc tech.Tech, sourceSlew float64) (*Report, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("timing: nil tree")
	}
	rep := &Report{
		MinLatency:  math.Inf(1),
		SinkLatency: make(map[int]float64),
	}

	// stageCap[n]: downstream capacitance seen from n, cut at buffer inputs.
	// bufLoad[b]: the stage load each buffer drives.
	stageCap := make(map[*tree.Node]float64)
	bufLoad := make(map[*tree.Node]float64)
	var capOf func(n *tree.Node) float64
	capOf = func(n *tree.Node) float64 {
		var c float64
		switch n.Kind {
		case tree.Sink:
			c = n.PinCap
		case tree.Buffer:
			// A buffer's input pin terminates the upstream stage; its own
			// fanout cone is a separate stage computed below.
			for _, ch := range n.Children {
				capOf(ch)
			}
			cone := 0.0
			for _, ch := range n.Children {
				cone += tc.WireCap(ch.EdgeLen) + stageCap[ch]
			}
			stageCap[n] = n.PinCap // as seen from upstream
			// Remember the buffer's own load separately.
			bufLoad[n] = cone
			return n.PinCap
		}
		for _, ch := range n.Children {
			c += tc.WireCap(ch.EdgeLen) + capOf(ch)
		}
		stageCap[n] = c
		return c
	}
	capOf(t.Root)

	var err error
	var walk func(n *tree.Node, delay, slew float64)
	walk = func(n *tree.Node, delay, slew float64) {
		if err != nil {
			return
		}
		switch n.Kind {
		case tree.Buffer:
			cell := lib.Cell(n.BufCell)
			if cell == nil {
				err = fmt.Errorf("timing: unknown buffer cell %q at %v", n.BufCell, n.Loc)
				return
			}
			load := bufLoad[n]
			if load > rep.MaxStgCap {
				rep.MaxStgCap = load
			}
			delay += cell.Delay(slew, load)
			slew = cell.OutSlew(load)
			rep.Buffers++
			rep.BufArea += cell.Area
		case tree.Sink:
			rep.SinkLatency[n.SinkIdx] = delay
			if delay > rep.MaxLatency {
				rep.MaxLatency = delay
			}
			if delay < rep.MinLatency {
				rep.MinLatency = delay
			}
			if slew > rep.MaxSlew {
				rep.MaxSlew = slew
			}
		}
		for _, ch := range n.Children {
			wireDelay := tc.WireElmore(ch.EdgeLen, stageCap[ch])
			// PERI slew degradation across the wire segment.
			wireSlew := Ln9 * wireDelay
			childSlew := math.Sqrt(slew*slew + wireSlew*wireSlew)
			walk(ch, delay+wireDelay, childSlew)
		}
	}
	walk(t.Root, 0, sourceSlew)
	if err != nil {
		return nil, err
	}
	if len(rep.SinkLatency) == 0 {
		return nil, fmt.Errorf("timing: tree has no sinks")
	}
	rep.Skew = rep.MaxLatency - rep.MinLatency

	t.Walk(func(n *tree.Node) bool {
		rep.WL += n.EdgeLen
		switch n.Kind {
		case tree.Sink, tree.Buffer:
			rep.ClockCap += n.PinCap
		}
		return true
	})
	rep.ClockCap += tc.WireCap(rep.WL)
	return rep, nil
}
