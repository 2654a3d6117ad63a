// Package buffering implements the paper's §3.4 buffering optimization:
// the critical-wirelength criterion for repeater insertion derived from the
// linear buffer delay model (Equation 6) and the tree transformation that
// inserts drivers and repeaters. The Equation-7 insertion-delay lower bound
// that pre-annotates nodes before their drivers are chosen is
// liberty.Library.InsertionDelayLowerBound.
package buffering

import (
	"math"

	"sllt/internal/liberty"
	"sllt/internal/obs"
	"sllt/internal/tech"
	"sllt/internal/timing"
	"sllt/internal/tree"
)

// Inserter drives buffer insertion over clock trees.
//
// Concurrency contract: every exported field is configuration, set once at
// construction and read-only afterwards — no method mutates the Inserter,
// and the Library and Tech it points to are likewise immutable after they
// are built. One Inserter is therefore safe to share across goroutines
// building disjoint trees, which is exactly what cts.Run does when
// Options.Workers fans the per-cluster builds out. Anyone adding a field
// here must keep it either immutable after construction or per-call local;
// TestInserterSharedAcrossGoroutines enforces the contract under the race
// detector.
type Inserter struct {
	Lib  *liberty.Library
	Tech tech.Tech
	// MaxCap is the per-stage load limit in fF (Table 5 uses 150 fF).
	MaxCap float64 // unit: fF
	// Margin derates cell max_capacitance when choosing drive strengths.
	Margin float64 // unit: 1
	// StrongestCell, when set, overrides load-based sizing: every buffer is
	// Lib's strongest cell (the OpenROAD-like baseline drives everything
	// with large buffers).
	StrongestCell bool
	// Kernel, when non-nil, receives insertion counters (BufInserted from
	// BufferTree, BufDecoupled from DecoupleSlowWires). The pointer is set
	// once at construction time like every other field, and the counters it
	// reaches are atomic — the shared-Inserter concurrency contract above is
	// unchanged.
	Kernel *obs.KernelCounters
}

// nominalSlew is the input slew pick assumes when it compares cell delays.
const nominalSlew = 20.0 // unit: ps

// maxWireDelay caps the Elmore delay any single unbuffered wire may
// contribute; DecoupleSlowWires puts a repeater at the load end of edges
// above it. The cap matters on die-spanning trunks, where the r·L·C cross
// term dwarfs what the critical-length formula (which assumes a fixed
// decoupled load) accounts for.
const maxWireDelay = 20.0 // unit: ps

// pick returns the cell for a stage load, honoring StrongestCell. Sizing is
// delay-aware: among cells whose derated max_capacitance covers the load,
// the smallest cell within 10 % of the best achievable delay wins — the
// standard speed/area trade real sizers make.
//
// unit: load fF -> _
func (ins *Inserter) pick(load float64) *liberty.BufferCell {
	best := ins.Lib.Strongest()
	if ins.StrongestCell {
		return best
	}
	bestDelay := best.Delay(nominalSlew, load)
	for _, c := range ins.Lib.Cells {
		if load > c.MaxCap*ins.Margin {
			continue
		}
		if d := c.Delay(nominalSlew, load); d < bestDelay {
			best, bestDelay = c, d
		}
	}
	for _, c := range ins.Lib.Cells { // smallest within 10% of best
		if load > c.MaxCap*ins.Margin {
			continue
		}
		if c.Delay(nominalSlew, load) <= bestDelay*1.10 {
			return c
		}
	}
	return best
}

// NewInserter returns an inserter with the repository defaults.
//
// unit: maxCap fF -> _
func NewInserter(lib *liberty.Library, tc tech.Tech, maxCap float64) *Inserter {
	return &Inserter{Lib: lib, Tech: tc, MaxCap: maxCap, Margin: 0.9}
}

// CriticalLength evaluates the paper's critical wirelength for the given
// cell: the wire length at which splitting the wire with one more buffer
// stops paying for itself,
//
//	L̂ = 2·sqrt((ωc·Cap + ωi) / (r·c·(ln9·ωs + 1))).
//
// cap is the capacitance the inserted buffer would decouple (the paper
// refines Cap_pin to Cap_load).
//
// unit: cap fF -> um
func (ins *Inserter) CriticalLength(cell *liberty.BufferCell, cap float64) float64 {
	r, c := ins.Tech.RPerUm, ins.Tech.CPerUm
	den := r * c * (timing.Ln9*cell.WS + 1)
	if den <= 0 {
		return math.Inf(1)
	}
	return 2 * math.Sqrt((cell.WC*cap+cell.WI)/den)
}

// BufferTree inserts a driver at the tree root and repeaters so that no
// stage exceeds the cap limit and no unbuffered wire run exceeds the
// critical length. Cells are sized to their stage loads. Returns the number
// of buffers inserted. The tree is modified in place.
func (ins *Inserter) BufferTree(t *tree.Tree) int {
	n := ins.bufferTree(t)
	if ins.Kernel != nil {
		ins.Kernel.BufInserted.Add(int64(n))
	}
	return n
}

func (ins *Inserter) bufferTree(t *tree.Tree) int {
	if t == nil || t.Root == nil {
		return 0
	}
	// Pass 1: break long edges so repeater sites exist mid-wire. The
	// smallest cell's critical length at typical loads is the conservative
	// segment ceiling.
	lhat := ins.CriticalLength(ins.Lib.Smallest(), ins.MaxCap/2)
	splitLongEdges(t, lhat)

	// Pass 2: bottom-up cap-driven insertion. Accumulate stage cap; when a
	// node's downstream cone exceeds the limit, decouple the heaviest child
	// subtrees behind buffers until the cone fits, falling back to a buffer
	// at the node itself when a single cone is simply too big.
	inserted := 0
	trigger := ins.MaxCap * ins.Margin
	var build func(n *tree.Node) float64
	build = func(n *tree.Node) float64 {
		type contrib struct {
			ch   *tree.Node
			load float64
		}
		var kids []contrib
		var cone float64
		for _, ch := range n.Children {
			// Capture the edge wire before build can re-stage ch: if a
			// buffer lands above ch, the same wire now feeds the buffer.
			wcap := ins.Tech.WireCap(ch.EdgeLen)
			load := wcap + build(ch)
			kids = append(kids, contrib{ch, load})
			cone += load
		}
		switch n.Kind {
		case tree.Sink:
			return n.PinCap
		case tree.Buffer:
			return n.PinCap
		}
		for cone > trigger && len(kids) > 1 {
			// Decouple the heaviest child.
			hi := 0
			for i := range kids {
				if kids[i].load > kids[hi].load {
					hi = i
				}
			}
			k := kids[hi]
			childCone := k.load - ins.Tech.WireCap(k.ch.EdgeLen)
			cell := ins.pick(childCone)
			if childCone <= cell.InputCap || insertBufferAbove(k.ch, cell) == nil {
				break // decoupling would not reduce the cone
			}
			inserted++
			cone += -childCone + cell.InputCap
			kids[hi].load = ins.Tech.WireCap(k.ch.EdgeLen) + cell.InputCap
		}
		if n.Parent != nil && cone > trigger {
			cell := ins.pick(cone)
			if insertBufferAbove(n, cell) != nil {
				inserted++
				return cell.InputCap
			}
		}
		return cone
	}
	rootCone := build(t.Root)

	// Pass 2b: decouple slow wires. A long trunk whose downstream stage
	// capacitance rides along pays r·L·C in Elmore delay; a repeater at its
	// load end cuts the wire's burden to r·L·(c·L/2 + Cin).
	inserted += ins.DecoupleSlowWires(t)

	// Pass 3: root driver sized for whatever remains at the source — unless
	// pass 2 already left a buffer right at the top with next to nothing in
	// front of it, in which case another driver would only burn a stage of
	// intrinsic delay.
	if len(t.Root.Children) == 1 && t.Root.Children[0].Kind == tree.Buffer &&
		rootCone <= ins.Lib.Smallest().MaxCap*ins.Margin {
		return inserted
	}
	cell := ins.pick(rootCone)
	if len(t.Root.Children) > 0 {
		buf := tree.NewNode(tree.Buffer, t.Root.Loc)
		buf.BufCell = cell.Name
		buf.PinCap = cell.InputCap
		kids := append([]*tree.Node(nil), t.Root.Children...)
		lens := make([]float64, len(kids))
		for i, ch := range kids {
			lens[i] = ch.EdgeLen
			ch.Detach()
		}
		t.Root.AddChild(buf)
		for i, ch := range kids {
			buf.Children = append(buf.Children, ch)
			ch.Parent = buf
			ch.EdgeLen = lens[i] // the buffer sits at the root's location
		}
		inserted++
	}
	return inserted
}

// DecoupleSlowWires inserts a repeater at the load end of every in-stage
// edge whose Elmore contribution exceeds maxWireDelay, iterating because an
// insertion re-partitions the stage capacitances. BufferTree runs it as its
// pass 2b; flows also re-run it after skew repair, whose snaking otherwise
// leaves long high-capacitance serpentines loading shared stages.
func (ins *Inserter) DecoupleSlowWires(t *tree.Tree) int {
	n := ins.decoupleSlowWires(t)
	if ins.Kernel != nil {
		ins.Kernel.BufDecoupled.Add(int64(n))
	}
	return n
}

func (ins *Inserter) decoupleSlowWires(t *tree.Tree) int {
	total := 0
	for iter := 0; iter < 128; iter++ {
		caps := timing.StageCaps(t.Root, ins.Tech)

		var worst *tree.Node
		worstD := maxWireDelay
		t.Walk(func(n *tree.Node) bool {
			if n.Parent == nil {
				return true
			}
			if d := ins.Tech.WireElmore(n.EdgeLen, caps[n]); d > worstD {
				worstD, worst = d, n
			}
			return true
		})
		if worst == nil {
			return total
		}
		cell := ins.pick(caps[worst])
		if caps[worst] <= cell.InputCap || insertBufferAbove(worst, cell) == nil {
			return total
		}
		total++
	}
	return total
}

// splitLongEdges subdivides every edge longer than lhat into segments of at
// most lhat, inserting Steiner nodes (repeater sites for pass 2 — they only
// become buffers if the cap criterion also fires) and direct repeaters for
// truly long runs.
//
// unit: lhat um ->
func splitLongEdges(t *tree.Tree, lhat float64) {
	if lhat <= 0 || math.IsInf(lhat, 1) {
		return
	}
	var work []*tree.Node
	t.Walk(func(n *tree.Node) bool {
		if n.Parent != nil && n.EdgeLen > lhat {
			work = append(work, n)
		}
		return true
	})
	for _, n := range work {
		for n.EdgeLen > lhat {
			st := tree.SplitEdge(n, lhat)
			if st == nil {
				break
			}
			// Keep splitting the remainder (n's edge shrank).
		}
	}
}

// insertBufferAbove converts the edge into n into a buffered stage: a new
// buffer node takes n's place under its parent at n's own location, with n
// re-attached below at zero distance.
func insertBufferAbove(n *tree.Node, cell *liberty.BufferCell) *tree.Node {
	p := n.Parent
	if p == nil {
		return nil
	}
	buf := tree.NewNode(tree.Buffer, n.Loc)
	buf.BufCell = cell.Name
	buf.PinCap = cell.InputCap
	buf.Parent = p
	buf.EdgeLen = n.EdgeLen
	for i, c := range p.Children {
		if c == n {
			p.Children[i] = buf
			break
		}
	}
	n.Parent = buf
	n.EdgeLen = 0
	buf.Children = []*tree.Node{n}
	return buf
}
