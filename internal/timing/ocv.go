package timing

import (
	"math"

	"sllt/internal/liberty"
	"sllt/internal/tech"
	"sllt/internal/tree"
)

// OCVParams model on-chip variation as early/late derating factors on wire
// and cell delays — the graph-based OCV approximation production STA uses.
// The paper's introduction motivates SLLT with exactly this effect:
// balanced-but-deep clock trees accumulate derate spread along their long
// divergent paths, so trees that are shallow where it counts see less
// variation-induced skew.
type OCVParams struct {
	WireEarly float64 // unit: 1 // multiplier on wire delay for the early race
	WireLate  float64 // unit: 1 // multiplier on wire delay for the late race
	CellEarly float64 // unit: 1 // multiplier on buffer delay, early
	CellLate  float64 // unit: 1 // multiplier on buffer delay, late
}

// DefaultOCV returns ±5 % wire and ±8 % cell derates, typical sign-off
// values at 28 nm.
func DefaultOCV() OCVParams {
	return OCVParams{WireEarly: 0.95, WireLate: 1.05, CellEarly: 0.92, CellLate: 1.08}
}

// OCVReport is the variation-aware skew analysis result.
type OCVReport struct {
	// NaiveSkew is max late arrival − min early arrival: the bound without
	// common-path pessimism removal.
	NaiveSkew float64 // unit: ps
	// Skew is the CPPR-corrected worst pair skew: derates only apply where
	// two sink paths actually diverge, since the shared trunk cannot be
	// simultaneously fast and slow.
	Skew float64 // unit: ps
	// Pessimism is the credit CPPR recovered on the worst pair.
	Pessimism float64 // unit: ps
}

// AnalyzeOCV computes variation-aware clock skew over a buffered tree. It
// derates the stage delays of Analyze's own walk, so with every derate at 1
// NaiveSkew is Analyze's skew. The CPPR-corrected skew is found by a single
// tree DP: two sink paths diverge at their lowest common ancestor, so the
// worst corrected pair through a node v is (max late arrival below one
// child of v) − (min early arrival below another), both measured from v.
func AnalyzeOCV(t *tree.Tree, lib *liberty.Library, tc tech.Tech, sourceSlew float64, p OCVParams) (*OCVReport, error) {
	delays := make(map[*tree.Node]stageDelay)
	if _, err := analyze(t, lib, tc, sourceSlew, delays); err != nil {
		return nil, err
	}

	worstPair := math.Inf(-1)
	globalLate, globalEarly := math.Inf(-1), math.Inf(1)

	// DP: for every node, the extreme early/late arrivals of sinks in its
	// subtree, measured from the node itself (after its own buffer).
	type ext struct{ minEarly, maxLate float64 }
	var dp func(n *tree.Node, lateFromRoot, earlyFromRoot float64) ext
	dp = func(n *tree.Node, lateFromRoot, earlyFromRoot float64) ext {
		if n.Kind == tree.Sink {
			if lateFromRoot > globalLate {
				globalLate = lateFromRoot
			}
			if earlyFromRoot < globalEarly {
				globalEarly = earlyFromRoot
			}
			return ext{0, 0}
		}
		kids := make([]ext, 0, len(n.Children))
		for _, ch := range n.Children {
			d := delays[ch]
			late := d.wire*p.WireLate + d.cell*p.CellLate
			early := d.wire*p.WireEarly + d.cell*p.CellEarly
			e := dp(ch, lateFromRoot+late, earlyFromRoot+early)
			kids = append(kids, ext{e.minEarly + early, e.maxLate + late})
		}
		out := ext{math.Inf(1), math.Inf(-1)}
		for _, k := range kids {
			out.minEarly = min(out.minEarly, k.minEarly)
			out.maxLate = max(out.maxLate, k.maxLate)
		}
		// Cross-pair skew through this divergence point.
		for i := range kids {
			for j := range kids {
				if i == j {
					continue
				}
				if s := kids[i].maxLate - kids[j].minEarly; s > worstPair {
					worstPair = s
				}
			}
		}
		if len(kids) == 0 {
			return ext{0, 0}
		}
		return out
	}
	dp(t.Root, 0, 0)
	rep := &OCVReport{NaiveSkew: globalLate - globalEarly}
	if math.IsInf(worstPair, -1) {
		worstPair = 0 // single sink
	}
	rep.Skew = max(worstPair, 0)
	rep.Pessimism = rep.NaiveSkew - rep.Skew
	return rep, nil
}
