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
}

// Analyze runs STA over the tree. The clock source drives the first stage
// with the given input slew (sourceSlew, ps); buffers re-drive downstream
// stages. lib resolves buffer cells by Node.BufCell; it may be nil when the
// tree holds no buffer, whose latencies are then pure-wire Elmore delays
// (Table 3's wire delay).
//
// Analyze is the flow's terminal stage: the report is a pure function of
// the tree and the library, so a cached replay keyed on both is sound.
//
// unit: sourceSlew ps -> _, _
func Analyze(t *tree.Tree, lib *liberty.Library, tc tech.Tech, sourceSlew float64) (*Report, error) {
	return analyze(t, lib, tc, sourceSlew, nil)
}

// stageDelay is one node's nominal delays: the wire into it, and its
// buffer's cell delay at the slew propagated to the buffer's input.
type stageDelay struct{ wire, cell float64 } // unit: ps

// analyze is Analyze's walk. A non-nil delays receives every node's
// stageDelay, so AnalyzeOCV derates exactly the delays this STA sums.
func analyze(t *tree.Tree, lib *liberty.Library, tc tech.Tech, sourceSlew float64, delays map[*tree.Node]stageDelay) (*Report, error) {
	if t == nil || t.Root == nil {
		return nil, fmt.Errorf("timing: nil tree")
	}
	rep := &Report{MinLatency: math.Inf(1)}
	sinks := 0

	stageCap := StageCaps(t.Root, tc)

	var err error
	var walk func(n *tree.Node, delay, slew, wireIn float64)
	walk = func(n *tree.Node, delay, slew, wireIn float64) {
		if err != nil {
			return
		}
		var cellDelay float64
		switch n.Kind {
		case tree.Buffer:
			cell := lib.Cell(n.BufCell)
			if cell == nil {
				err = fmt.Errorf("timing: unknown buffer cell %q at %v", n.BufCell, n.Loc)
				return
			}
			load := BufferLoad(n, stageCap, tc)
			if load > rep.MaxStgCap {
				rep.MaxStgCap = load
			}
			cellDelay = cell.Delay(slew, load)
			delay += cellDelay
			slew = cell.OutSlew(load)
			rep.Buffers++
			rep.BufArea += cell.Area
		case tree.Sink:
			sinks++
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
		if delays != nil {
			delays[n] = stageDelay{wire: wireIn, cell: cellDelay}
		}
		for _, ch := range n.Children {
			wireDelay := tc.WireElmore(ch.EdgeLen, stageCap[ch])
			// PERI slew degradation across the wire segment.
			wireSlew := Ln9 * wireDelay
			childSlew := math.Sqrt(slew*slew + wireSlew*wireSlew)
			walk(ch, delay+wireDelay, childSlew, wireDelay)
		}
	}
	walk(t.Root, 0, sourceSlew, 0)
	if err != nil {
		return nil, err
	}
	if sinks == 0 {
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

// StageCaps returns each node's stage capacitance: the wire and pin
// capacitance below it, cut at buffer inputs. A buffer's entry is its input
// pin, the load it presents upstream; BufferLoad gives the load it drives.
// This is the stage load of the paper's §3.4 buffering (Equations 6 and 7)
// and of sign-off timing, and every walk that needs one reads it here.
//
// unit: -> fF
func StageCaps(root *tree.Node, tc tech.Tech) map[*tree.Node]float64 {
	caps := make(map[*tree.Node]float64)
	var rec func(n *tree.Node) float64
	rec = func(n *tree.Node) float64 {
		var c float64
		switch n.Kind {
		case tree.Sink, tree.Buffer:
			c = n.PinCap
		}
		for _, ch := range n.Children {
			below := rec(ch)
			if n.Kind != tree.Buffer {
				c += tc.WireCap(ch.EdgeLen) + below
			}
		}
		caps[n] = c
		return c
	}
	rec(root)
	return caps
}

// BufferLoad returns the stage load buffer n drives: the wires to its
// children and their stage capacitances from caps, as StageCaps returns
// them.
//
// unit: caps fF -> fF
func BufferLoad(n *tree.Node, caps map[*tree.Node]float64, tc tech.Tech) float64 {
	var load float64
	for _, ch := range n.Children {
		load += tc.WireCap(ch.EdgeLen) + caps[ch]
	}
	return load
}
