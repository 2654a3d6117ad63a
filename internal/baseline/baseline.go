// Package baseline configures the two reference flows the paper compares
// against in Tables 6 and 7. Neither tool is available to this
// reproduction (OpenROAD has no Go port; the commercial tool is
// proprietary), so both are modeled as configurations of the same
// hierarchical framework whose algorithmic choices mirror each tool's
// published/observed character:
//
//   - OpenROADLike follows TritonCTS's shape: geometric sink clustering
//     (no balance refinement), zero-skew DME balancing on pure geometry
//     with no insertion-delay annotation between levels, and uniformly
//     large clock buffers. The profile that emerges — higher latency and
//     skew, more buffer area, more wire — is the one Tables 6/7 report
//     for OpenROAD.
//
//   - CommercialLike models a mature P&R engine: plain BST-DME topology
//     (strong skew control, heavier wire than CBS), exact timing-driven
//     insertion-delay annotation, conservative buffer sizing, and a much
//     larger optimization effort (longer annealing, multiple topology
//     candidates per net) — which is also what makes it an order of
//     magnitude slower, as in the paper's runtime columns.
//
// Engines names the paper's flow and both proxies for every front end that
// selects a flow: slltcts, the job API, benchtab's Tables 6/7 and
// examples/ocvreport.
package baseline

import (
	"fmt"

	"sllt/internal/core"
	"sllt/internal/cts"
	"sllt/internal/dme"
	"sllt/internal/tree"
)

// An Engine is one flow of Tables 6 and 7.
type Engine struct {
	// Name selects the flow: slltcts -engine and the job API's "engine".
	Name string
	// Label names the flow in Tables 6 and 7 and the flow digests.
	Label string
	// Options returns a fresh copy of the flow's configuration.
	Options func() cts.Options
}

// Engines is the engine table: the paper's flow and the two proxies, in
// the tables' column order.
var Engines = []Engine{
	{"ours", "Ours", cts.DefaultOptions},
	{"commercial", "Com.", CommercialLike},
	{"openroad", "OR.", OpenROADLike},
}

// Lookup returns the engine called name.
func Lookup(name string) (Engine, error) {
	for _, e := range Engines {
		if e.Name == name {
			return e, nil
		}
	}
	return Engine{}, fmt.Errorf("unknown engine %q (want ours, commercial or openroad)", name)
}

// OpenROADLike returns the OpenROAD-proxy flow configuration.
func OpenROADLike() cts.Options {
	opts := cts.DefaultOptions()
	// TritonCTS routes clusters competently; its weaknesses modeled here
	// are the estimate-blind balancing, uniform large buffers and deeper
	// hierarchy, not the per-net router, so it keeps DefaultOptions' CBS
	// builder and the BuildID that keys it in the run cache.
	opts.Est = cts.EstNone
	opts.UseSA = false
	opts.StrongestCell = true
	opts.BufferMargin = 1.0
	// TritonCTS-style deeper hierarchies: smaller clusters, more levels,
	// more (and uniformly large) buffers.
	opts.Cons.MaxFanout = 20
	return opts
}

// CommercialLike returns the commercial-proxy flow configuration.
func CommercialLike() cts.Options {
	opts := cts.DefaultOptions()
	opts.Build = bestOfCandidates()
	// bestOfCandidates replaces the default builder, so it must carry its
	// own cache identity: the BST-DME candidate sweep over all four topology
	// generators plus the CBS refinement at SALT eps 0.6.
	opts.BuildID = "bstdme-bestof4+cbs-refine/0.60"
	opts.Est = cts.EstExact
	opts.UseSA = true
	opts.SAIters = 30000
	opts.KMeansRestarts = 4
	opts.BufferMargin = 0.65 // conservative sizing: more, larger buffers
	// Much tighter internal skew targets than the constraint requires:
	// commercial engines balance aggressively and spend wire doing it.
	opts.Cons.SkewBound = cts.DefaultConstraints().SkewBound * 0.25
	return opts
}

// bestOfCandidates builds each net with BST-DME under all four merging-
// topology generators and refines the lightest with CBS — the kind of
// candidate sweep a commercial engine spends its runtime on. Because the
// final answer is a CBS refinement of a BST seed, the wire quality tracks
// the paper's observation that the commercial tool essentially matches on
// wirelength while spending far more runtime.
func bestOfCandidates() cts.TopoBuilder {
	return func(net *tree.Net, dopts dme.Options) (*tree.Tree, error) {
		var best *tree.Tree
		var firstErr error
		for _, m := range dme.AllTopoMethods {
			topo := dme.GenTopo(net, m, dopts.LengthBudget(net))
			t, err := dme.Build(net, topo, dopts)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if best == nil || t.Wirelength() < best.Wirelength() {
				best = t
			}
		}
		if best == nil {
			return nil, firstErr
		}
		if refined, err := core.Refine(net, best, core.Options{
			DME: dopts, TopoMethod: dme.GreedyDist, SALTEps: 0.6,
		}); err == nil && refined.Wirelength() < best.Wirelength() {
			best = refined
		}
		return best, nil
	}
}
