// Package core implements the paper's primary contribution: CBS (Concurrent
// BST and SALT), the construction of skew-latency-load trees (SLLTs) that
// keep the skew control of bounded-skew DME while approaching the
// shallowness and lightness of Steiner shallow-light trees.
//
// The five-step flow follows the paper's Fig. 2:
//
//	Step 1: build an initial SLLT with BST-DME over a chosen merging
//	        topology (Greedy-Dist / Greedy-Merge / Bi-Partition / Bi-Cluster).
//	Step 2: extract its tree topology, eliminating redundant Steiner nodes.
//	Step 3: relax with SALT — paths much longer than their Manhattan lower
//	        bound are re-attached closer to the source, deliberately breaking
//	        skew legality in exchange for shallowness and lightness.
//	Step 4: re-canonicalize: binary tree, load pins as leaves.
//	Step 5: re-run BST-DME on the relaxed topology, restoring the skew bound
//	        while keeping the improved structure; redundant nodes are
//	        eliminated again in embedding.
package core

import (
	"fmt"

	"sllt/internal/dme"
	"sllt/internal/rsmt"
	"sllt/internal/salt"
	"sllt/internal/tree"
)

// Options configures CBS construction.
type Options struct {
	// DME carries the delay model, skew bound and technology.
	DME dme.Options
	// TopoMethod selects the Step-1 merging topology generator.
	TopoMethod dme.TopoMethod
	// SALTEps is the Step-3 shallowness slack: paths longer than
	// (1+SALTEps)·MD are re-attached. Smaller is more aggressive.
	SALTEps float64
}

// DefaultOptions returns the configuration used in the paper's net-level
// experiments: linear-model BST with the given skew bound, Greedy-Dist
// topology and a moderate SALT slack.
func DefaultOptions(skewBound float64) Options {
	return Options{
		DME:        dme.BST(skewBound),
		TopoMethod: dme.GreedyDist,
		SALTEps:    0.1,
	}
}

// Build runs the full five-step CBS flow on the net.
func Build(net *tree.Net, opts Options) (*tree.Tree, error) {
	// Step 1: initial SLLT by BST.
	initial, err := BuildStep1(net, opts)
	if err != nil {
		return nil, fmt.Errorf("cbs step 1: %w", err)
	}
	return Refine(net, initial, opts)
}

// BuildStep1 builds the initial bounded-skew tree (Step 1), exposed
// separately for ablation studies.
func BuildStep1(net *tree.Net, opts Options) (*tree.Tree, error) {
	budget := opts.DME.LengthBudget(net)
	topo := dme.GenTopo(net, opts.TopoMethod, budget)
	return dme.Build(net, topo, opts.DME)
}

// Refine applies Steps 2–5 to an existing skew-legal tree: topology
// extraction, SALT relaxation, canonicalization, and a BST pass on the
// relaxed topology. The input tree is not modified.
func Refine(net *tree.Net, initial *tree.Tree, opts Options) (*tree.Tree, error) {
	// Steps 2+3: extract the topology implicitly by relaxing the embedded
	// tree with SALT. Relax removes snaking (redundant "Steiner length"),
	// re-attaches overlong paths, and Steinerizes — skew legality is broken
	// here, exactly as the paper notes.
	relaxed := initial.Clone()
	salt.Relax(relaxed, opts.SALTEps, opts.DME.Kernel)

	// The BST seed leaves its Steiner points at delay-balance positions,
	// which are poor for wirelength once balancing is deferred to Step 5.
	// Alternate L1-median repositioning, rerouting, and Steinerization until
	// no pass finds an improvement.
	for i := 0; i < 4; i++ {
		moved := tree.OptimizeSteinerLocations(relaxed, 16)
		moved += salt.Reroute(relaxed, opts.SALTEps)
		if moved == 0 {
			break
		}
		rsmt.Steinerize(relaxed, opts.DME.Kernel)
		tree.RemoveRedundantSteiner(relaxed)
	}

	// Step 4: structural rules — binary tree, load pins as leaves,
	// redundant Steiner nodes eliminated.
	tree.Canonicalize(relaxed)

	// Step 5: BST on the Step-4 topology. With every node's embedding fixed
	// by the relaxation, BST-DME degenerates to its wire-sizing component: a
	// bottom-up bounded-skew repair that snakes the edges of too-fast
	// subtrees as high in the tree as possible. This is what lets the final
	// tree "closely approximate the result by SALT" (the paper's own
	// description of Step 5) instead of re-balancing from scratch.
	if err := dme.RepairSkew(relaxed, net, opts.DME); err != nil {
		return nil, fmt.Errorf("cbs step 5: %w", err)
	}
	return relaxed, nil
}

// RefineReembed is the ablation variant of Refine that re-runs full
// positional DME on the topology extracted from the relaxed tree instead of
// repairing in place. It generally wastes wire on chain-shaped topologies
// (balance-point drift) and exists to quantify that choice.
func RefineReembed(net *tree.Net, initial *tree.Tree, opts Options) (*tree.Tree, error) {
	relaxed := initial.Clone()
	salt.Relax(relaxed, opts.SALTEps, nil)
	tree.Canonicalize(relaxed)
	topo, err := tree.ExtractTopo(relaxed, len(net.Sinks))
	if err != nil {
		return nil, fmt.Errorf("cbs step 4: %w", err)
	}
	final, err := dme.Build(net, topo, opts.DME)
	if err != nil {
		return nil, fmt.Errorf("cbs step 5: %w", err)
	}
	return final, nil
}
