package cts

import (
	"fmt"
	"testing"

	"sllt/internal/cache"
	"sllt/internal/geom"
	"sllt/internal/timing"
	"sllt/internal/tree"
)

// guardSinkB keeps the compiler from discarding the guarded calls.
var guardSinkB []byte

// guardStar returns a buffer driving n named sinks.
func guardStar(n int) *tree.Node {
	root := &tree.Node{Kind: tree.Buffer, Name: "buf0", BufCell: "BUFX4", SinkIdx: -1}
	for i := 0; i < n; i++ {
		root.AddChild(&tree.Node{Kind: tree.Sink, Name: fmt.Sprintf("ff%d", i),
			Loc: geom.Pt(float64(i), 1), PinCap: 1.5, SinkIdx: i})
	}
	return root
}

// allocScalingGuards pins the stage-value encoders, whose output buffers
// are allocated once per call but whose per-element loops must not
// allocate: at(n) returns the encode of an n-element value, and it must
// allocate as often at n as at 16n. encodeNode writes into a copy of one
// presized encoder, so it allocates nothing at all.
var allocScalingGuards = []struct {
	name string
	n    int
	at   func(n int) func()
}{
	{"encodePartitionValue", 64, func(n int) func() {
		v := partitionValue{k: 4, method: "kmeans", assign: make([]int, n)}
		return func() { guardSinkB = encodePartitionValue(v) }
	}},
	{"encodeTimingReport", 64, func(n int) func() {
		r := &timing.Report{SinkLatency: make(map[int]float64, n)}
		for i := 0; i < n; i++ {
			r.SinkLatency[i] = float64(i)
		}
		return func() { guardSinkB = encodeTimingReport(r) }
	}},
	{"encodeNode", 64, func(n int) func() {
		root, presized := guardStar(n), cache.NewEnc(128*(n+1))
		return func() {
			e := *presized
			encodeNode(&e, root)
		}
	}},
}

func TestAllocScalingGuards(t *testing.T) {
	for _, g := range allocScalingGuards {
		lo := testing.AllocsPerRun(5, g.at(g.n))
		hi := testing.AllocsPerRun(5, g.at(16*g.n))
		t.Logf("%s: %.0f vs %.0f", g.name, lo, hi)
		if lo != hi {
			t.Errorf("%s allocates %.1f times per call at n=%d but %.1f at n=%d, want equal",
				g.name, lo, g.n, hi, 16*g.n)
		}
	}
}
