package cts

import (
	"fmt"
	"io"

	"sllt/internal/design"
	"sllt/internal/geom"
	"sllt/internal/lefdef"
	"sllt/internal/tree"
)

// ClockLayer is the routing layer clock wires are emitted on.
const ClockLayer = "metal4"

// ExportDEFWriter is the checked exporter: it validates the synthesis
// result, then streams ExportDEF's DEF to w in bounded chunks
// (lefdef.DEF.WriteTo), so the rendered text never exists in memory. A nil
// design or tree, a design whose clock net has no sinks and a sink leaf
// whose index names no design sink each come back as an error before a
// byte is written, a writer failure as an export error. Returns the
// exported DEF for callers that report component/net counts.
func ExportDEFWriter(w io.Writer, d *design.Design, res *Result) (*lefdef.DEF, error) {
	if d == nil {
		return nil, fmt.Errorf("cts: export: nil design")
	}
	if res == nil || res.Tree == nil || res.Tree.Root == nil {
		return nil, fmt.Errorf("cts: export: nil synthesis tree for design %q", d.Name)
	}
	if d.ClockNet == "" {
		return nil, fmt.Errorf("cts: export: design %q has no clock net", d.Name)
	}
	n := d.NumFFs()
	if n == 0 {
		return nil, fmt.Errorf("cts: export: clock net %q has no sinks", d.ClockNet)
	}
	for _, s := range res.Tree.Sinks() {
		if s.SinkIdx < 0 || s.SinkIdx >= n {
			return nil, fmt.Errorf("cts: export: sink leaf %q has index %d, but clock net %q has %d sinks",
				s.Name, s.SinkIdx, d.ClockNet, n)
		}
	}
	def := ExportDEF(d, res)
	if _, err := def.WriteTo(w); err != nil {
		return nil, fmt.Errorf("cts: export: %w", err)
	}
	return def, nil
}

// ExportDEF emits the post-CTS netlist as DEF-lite: the design's DEF
// (design.Design.DEF: each original component with its own placement
// status and orientation, and the clock IO pin) plus the inserted clock
// buffers, with the flat clock net replaced by one subnet per buffer
// stage, each carrying its routed wire geometry (L-shaped runs; snaked
// wire appears as an explicit serpentine detour so the routed length
// matches the tree's electrical length). This is the
// CTS↔routing bridge the paper emphasizes: the topology handed to routing
// IS the synthesized one. Each sink leaf connects the component and clock
// pin of the design's sink instance its SinkIdx names, counting sink
// instances in the order design.Net numbers them; ExportDEF assumes every
// index is in range, which ExportDEFWriter checks.
func ExportDEF(d *design.Design, res *Result) *lefdef.DEF {
	def := d.DEF()
	var sinks []*design.Instance
	for i := range d.Insts {
		if inst := &d.Insts[i]; inst.IsSink {
			sinks = append(sinks, inst)
		}
	}

	// Name buffers and create their components.
	bufName := make(map[*tree.Node]string)
	bi := 0
	res.Tree.Walk(func(n *tree.Node) bool {
		if n.Kind == tree.Buffer {
			name := fmt.Sprintf("clkbuf_%04d", bi)
			bi++
			bufName[n] = name
			def.Components = append(def.Components, lefdef.Component{
				Name: name, Macro: n.BufCell, Loc: n.Loc, Orient: "N",
			})
		}
		return true
	})

	// One net per buffer stage. The root stage is driven by the IO pin.
	ni := 0
	var emit func(driverConn lefdef.Conn, stageRoot *tree.Node)
	emit = func(driverConn lefdef.Conn, stageRoot *tree.Node) {
		name := d.ClockNet
		if ni > 0 {
			name = fmt.Sprintf("%s_%04d", d.ClockNet, ni)
		}
		ni++
		net := lefdef.Net{Name: name, Use: "CLOCK", Conns: []lefdef.Conn{driverConn}}
		var downstream []*tree.Node

		var collect func(n *tree.Node)
		collect = func(n *tree.Node) {
			if n.Parent != nil && n.EdgeLen > 0 {
				net.Routes = append(net.Routes, edgeRoute(n))
			}
			switch n.Kind {
			case tree.Sink:
				inst := sinks[n.SinkIdx]
				net.Conns = append(net.Conns, lefdef.Conn{Comp: inst.Name, Pin: inst.ClockPin})
				return
			case tree.Buffer:
				net.Conns = append(net.Conns, lefdef.Conn{Comp: bufName[n], Pin: "A"})
				downstream = append(downstream, n)
				return
			}
			for _, c := range n.Children {
				collect(c)
			}
		}
		for _, c := range stageRoot.Children {
			collect(c)
		}
		if len(net.Conns) > 1 {
			def.Nets = append(def.Nets, net)
		}
		for _, b := range downstream {
			emit(lefdef.Conn{Comp: bufName[b], Pin: "Y"}, b)
		}
	}
	emit(lefdef.Conn{Comp: "PIN", Pin: d.ClockNet}, res.Tree.Root)
	return def
}

// edgeRoute converts one tree edge into routed geometry: the L-shaped
// (horizontal-then-vertical) run, with any snaked surplus realized as a
// serpentine out-and-back at the load end so routed length equals the
// electrical EdgeLen.
func edgeRoute(n *tree.Node) lefdef.Route {
	a, b := n.Parent.Loc, n.Loc
	r := lefdef.Route{Layer: ClockLayer}
	r.Points = append(r.Points, a)
	if !geom.AlmostEqual(a.X, b.X) && !geom.AlmostEqual(a.Y, b.Y) {
		r.Points = append(r.Points, geom.Pt(b.X, a.Y)) // the bend
	}
	if !pointsEqual(r.Points[len(r.Points)-1], b) {
		r.Points = append(r.Points, b)
	}
	if extra := n.EdgeLen - a.Dist(b); extra > geom.Eps {
		// Serpentine: out and back, perpendicular to the last segment.
		half := extra / 2
		last := r.Points[len(r.Points)-1]
		prev := last // zero-length edge: any direction works
		if len(r.Points) >= 2 {
			prev = r.Points[len(r.Points)-2]
		}
		var out geom.Point
		if geom.AlmostEqual(prev.X, last.X) { // vertical approach: detour in x
			out = geom.Pt(last.X+half, last.Y)
		} else {
			out = geom.Pt(last.X, last.Y+half)
		}
		r.Points = append(r.Points, out, last)
	}
	return r
}

func pointsEqual(a, b geom.Point) bool { return a.Eq(b) }
