package cts

import (
	"reflect"
	"testing"

	"sllt/internal/buffering"
	"sllt/internal/designgen"
	"sllt/internal/obs"
	"sllt/internal/tree"
)

// benchNodes builds the level-0 clock nodes the way Run does, so the
// benchmark exercises buildLevel exactly as the flow drives it.
func benchNodes(b *testing.B, insts, ffs int) ([]clockNode, Options, *buffering.Inserter, float64) {
	b.Helper()
	spec := designgen.Spec{Name: "alloc", Insts: insts, FFs: ffs, Util: 0.62}
	d := designgen.Generate(spec, 1)
	flat := d.Net()
	nodes := make([]clockNode, len(flat.Sinks))
	for i, s := range flat.Sinks {
		leaf := tree.NewNode(tree.Sink, s.Loc)
		leaf.Name = s.Name
		leaf.PinCap = s.Cap
		leaf.SinkIdx = i
		nodes[i] = clockNode{loc: s.Loc, cap: s.Cap, delay: 0, sub: leaf}
	}
	opts := DefaultOptions()
	opts.UseSA = false // SA dominates allocations; the target here is buildLevel's own
	ins := buffering.NewInserter(opts.Lib, opts.Tech, opts.Cons.MaxCap)
	ins.Margin = opts.BufferMargin
	bound := levelShare(opts.Cons.SkewBound, estLevels(len(nodes), opts.Cons.MaxFanout))
	return nodes, opts, ins, bound
}

// TestStageTimingManualClock pins per-stage timing to the injectable obs
// clock instead of the wall clock: with a ManualClock every span duration
// is a pure function of the instrumentation call sequence, so the
// assertions are exact and can never flake on a slow or preempted CI
// runner. A serial (Workers=1) run must produce the identical StageNs map
// on every execution, and every flow stage must record nonzero time.
func TestStageTimingManualClock(t *testing.T) {
	run := func() map[string]int64 {
		spec := designgen.Spec{Name: "clk", Insts: 300, FFs: 60, Util: 0.6}
		d := designgen.Generate(spec, 2)
		opts := DefaultOptions()
		opts.SAIters = 20
		opts.Workers = 1 // serial: the manual clock's Now sequence is then deterministic
		opts.Obs = obs.New(obs.NewManualClock(1))
		if _, err := Run(d, opts); err != nil {
			t.Fatal(err)
		}
		return opts.Obs.Snapshot().StageNs()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("manual-clock stage timings differ across identical runs:\n%v\n%v", a, b)
	}
	for _, name := range []string{"level", "partition", "assign", "sa", "clusters", "cluster", "top_net", "timing"} {
		if a[name] <= 0 {
			t.Errorf("stage %q recorded no time: %v", name, a)
		}
	}
}

// BenchmarkBuildLevelAllocs reports one uncached level-0 buildLevel's
// allocations and bytes: partitioning, member bucketing, the cluster net
// builds and latency estimation. Regressions show up in the allocs/op and
// B/op columns.
func BenchmarkBuildLevelAllocs(b *testing.B) {
	nodes, opts, ins, bound := benchNodes(b, 2000, 480)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// buildLevel grafts the level-0 subtrees into the cluster trees, so
		// each iteration needs fresh leaves; count only buildLevel itself.
		b.StopTimer()
		fresh := make([]clockNode, len(nodes))
		copy(fresh, nodes)
		for j := range fresh {
			leaf := tree.NewNode(tree.Sink, nodes[j].loc)
			leaf.Name = nodes[j].sub.Name
			leaf.PinCap = nodes[j].cap
			leaf.SinkIdx = j
			fresh[j].sub = leaf
		}
		b.StartTimer()
		if _, _, err := buildLevel(fresh, opts, ins, bound, 0); err != nil {
			b.Fatal(err)
		}
	}
}
