package timing

import (
	"math"

	"sllt/internal/tech"
	"sllt/internal/tree"
)

// Unbuffered computes pure-wire Elmore sink delays of an unbuffered tree:
// the "Wire Delay" metric of the paper's Table 3. Returns the maximum and
// the spread (skew) over sinks, in ps. Buffers, if any, cut stages as
// everywhere else (StageCaps), but add no delay of their own.
//
// unit: -> ps, ps
func Unbuffered(t *tree.Tree, tc tech.Tech) (maxDelay, skew float64) {
	caps := StageCaps(t.Root, tc)
	lo, hi := math.Inf(1), math.Inf(-1)
	var walk func(n *tree.Node, d float64)
	walk = func(n *tree.Node, d float64) {
		if n.Kind == tree.Sink {
			lo = math.Min(lo, d)
			hi = math.Max(hi, d)
		}
		for _, ch := range n.Children {
			walk(ch, d+tc.WireElmore(ch.EdgeLen, caps[ch]))
		}
	}
	walk(t.Root, 0)
	if math.IsInf(hi, -1) {
		return 0, 0
	}
	return hi, hi - lo
}
