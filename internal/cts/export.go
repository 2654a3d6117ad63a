package cts

import (
	"fmt"
	"io"
	"os"

	"sllt/internal/design"
	"sllt/internal/geom"
	"sllt/internal/lefdef"
	"sllt/internal/tree"
)

// ClockLayer is the routing layer clock wires are emitted on.
const ClockLayer = "metal4"

// ExportDEFFile validates the synthesis result and writes the post-CTS
// DEF to path. ExportDEF itself assumes a well-formed result (the flow
// guarantees one); this wrapper is the defensive boundary for callers
// handing in external state — a nil tree, a design whose clock net has no
// sinks, a sink leaf whose index names no design sink, or an unwritable
// destination all come back as errors instead of a panic or a silently
// empty file. Returns the exported DEF for callers that report
// component/net counts.
func ExportDEFFile(path string, d *design.Design, res *Result) (*lefdef.DEF, error) {
	def, err := exportChecked(d, res)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cts: export: %w", err)
	}
	if _, err := def.WriteTo(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cts: export: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("cts: export: %w", err)
	}
	return def, nil
}

// ExportDEFWriter validates like ExportDEFFile and streams the post-CTS DEF
// to w in bounded chunks (lefdef.DEF.WriteTo) — the in-memory DEF structure
// is built, but the rendered text never is, so writing a million-sink
// design costs one chunk beyond the netlist itself. Returns the exported
// DEF for callers that report component/net counts.
func ExportDEFWriter(w io.Writer, d *design.Design, res *Result) (*lefdef.DEF, error) {
	def, err := exportChecked(d, res)
	if err != nil {
		return nil, err
	}
	if _, err := def.WriteTo(w); err != nil {
		return nil, fmt.Errorf("cts: export: %w", err)
	}
	return def, nil
}

// exportChecked is the defensive boundary shared by the file and writer
// exporters: reject external state ExportDEF's assumptions don't cover.
func exportChecked(d *design.Design, res *Result) (*lefdef.DEF, error) {
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
	return ExportDEF(d, res), nil
}

// ExportDEF emits the post-CTS netlist as DEF-lite: the original components,
// each with its own placement status and orientation, plus the inserted
// clock buffers, with the flat clock net replaced by one subnet per buffer
// stage, each carrying its routed wire geometry (L-shaped runs; snaked
// wire appears as an explicit serpentine detour so the routed length
// matches the tree's electrical length). This is the
// CTS↔routing bridge the paper emphasizes: the topology handed to routing
// IS the synthesized one. Each sink leaf connects the component and clock
// pin of the design's sink instance its SinkIdx names, counting sink
// instances in the order design.Net numbers them; ExportDEF assumes every
// index is in range, which ExportDEFFile and ExportDEFWriter check.
func ExportDEF(d *design.Design, res *Result) *lefdef.DEF {
	def := &lefdef.DEF{
		Version: "5.8",
		Design:  d.Name,
		DBU:     d.DBU,
		Die:     d.Die,
	}
	var sinks []*design.Instance
	for i := range d.Insts {
		inst := &d.Insts[i]
		def.Components = append(def.Components, lefdef.Component{
			Name: inst.Name, Macro: inst.Macro, Loc: inst.Loc, Status: inst.Status, Orient: inst.Orient,
		})
		if inst.IsSink {
			sinks = append(sinks, inst)
		}
	}
	def.Pins = append(def.Pins, lefdef.IOPin{
		Name: d.ClockNet, Net: d.ClockNet, Direction: "INPUT", Use: "CLOCK", Loc: d.ClockRoot,
	})

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
