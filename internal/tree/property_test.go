package tree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sllt/internal/geom"
)

// quickNet builds a reproducible random net from quick-generated integers.
func quickNet(seed int64, n int) *Net {
	rng := rand.New(rand.NewSource(seed))
	if n < 2 {
		n = 2
	}
	if n > 40 {
		n = 2 + n%39
	}
	net := &Net{Source: geom.Pt(rng.Float64()*100, rng.Float64()*100)}
	used := map[geom.Point]bool{net.Source: true}
	for len(net.Sinks) < n {
		p := geom.Pt(float64(rng.Intn(100)), float64(rng.Intn(100)))
		if used[p] {
			continue
		}
		used[p] = true
		net.Sinks = append(net.Sinks, PinSink{Name: "s", Loc: p, Cap: 1})
	}
	return net
}

// starTree wires every sink straight from the source.
func starTree(net *Net) *Tree {
	t := New(net.Source)
	for i := range net.Sinks {
		t.Root.AddChild(net.SinkNode(i))
	}
	return t
}

// Property: for any net, the star tree has α = 1 (paths are Manhattan
// shortest) and γ ≥ 1, and Measure's path stats are consistent.
func TestQuickStarTreeProperties(t *testing.T) {
	f := func(seed int64, n int) bool {
		net := quickNet(seed, n)
		tr := starTree(net)
		m := Measure(tr, net, tr.Wirelength())
		if m.Alpha > 1+1e-9 {
			return false
		}
		if m.Gamma < 1-1e-9 {
			return false
		}
		if m.MinPL > m.MeanPL+1e-9 || m.MeanPL > m.MaxPL+1e-9 {
			return false
		}
		if m.Beta != 1 {
			return false
		}
		return m.MaxPL-m.MinPL >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: Canonicalize preserves the sink set and every sink's path
// length on arbitrary random tree shapes.
func TestQuickCanonicalizePreservesPaths(t *testing.T) {
	f := func(seed int64, n int) bool {
		net := quickNet(seed, n)
		rng := rand.New(rand.NewSource(seed ^ 0x5ca1e))
		// Random attachment order with random intermediate steiner points.
		tr := New(net.Source)
		nodes := []*Node{tr.Root}
		for i := range net.Sinks {
			parent := nodes[rng.Intn(len(nodes))]
			for parent.Kind == Sink {
				parent = nodes[rng.Intn(len(nodes))]
			}
			if rng.Intn(2) == 0 {
				st := NewNode(Steiner, parent.Loc.Lerp(net.Sinks[i].Loc, rng.Float64()))
				parent.AddChild(st)
				nodes = append(nodes, st)
				parent = st
			}
			s := net.SinkNode(i)
			parent.AddChild(s)
			nodes = append(nodes, s)
		}
		before := map[int]float64{}
		for _, s := range tr.Sinks() {
			before[s.SinkIdx] = PathLength(s)
		}
		Canonicalize(tr)
		if err := tr.Validate(); err != nil {
			return false
		}
		sinks := tr.Sinks()
		if len(sinks) != len(net.Sinks) {
			return false
		}
		for _, s := range sinks {
			if math.Abs(PathLength(s)-before[s.SinkIdx]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: OptimizeSteinerLocations never increases total wirelength and
// preserves validity.
func TestQuickPolishMonotone(t *testing.T) {
	f := func(seed int64, n int) bool {
		net := quickNet(seed, n)
		rng := rand.New(rand.NewSource(seed ^ 0x901154))
		tr := New(net.Source)
		// Chain with per-sink steiner detours.
		cur := tr.Root
		for i := range net.Sinks {
			st := NewNode(Steiner, geom.Pt(rng.Float64()*100, rng.Float64()*100))
			cur.AddChild(st)
			st.AddChild(net.SinkNode(i))
			cur = st
		}
		before := tr.Wirelength()
		OptimizeSteinerLocations(tr, 8)
		if err := tr.Validate(); err != nil {
			return false
		}
		return tr.Wirelength() <= before+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
