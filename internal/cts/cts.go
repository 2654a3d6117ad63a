// Package cts is the paper's hierarchical clock tree synthesis framework
// (§3, Fig. 3). Each level: (1) partition the current clock nodes with
// balanced k-means + min-cost-flow assignment, optionally refined by
// simulated annealing; (2) generate each cluster's routing topology (CBS by
// default — pluggable, so BST/ZST/SALT engines slot in for baselines and
// ablations); (3) insert the driver buffer and repeaters, repair the skew
// the buffers disturb, and annotate the cluster root with its insertion
// delay estimate for the next level. The loop repeats until the remaining
// roots fit under one top-level net driven from the clock source.
package cts

import (
	"context"
	"fmt"

	"math"

	"sllt/internal/buffering"
	"sllt/internal/cache"
	"sllt/internal/core"
	"sllt/internal/design"
	"sllt/internal/dme"
	"sllt/internal/geom"
	"sllt/internal/liberty"
	"sllt/internal/obs"
	"sllt/internal/parallel"
	"sllt/internal/partition"
	"sllt/internal/tech"
	"sllt/internal/timing"
	"sllt/internal/tree"
)

// Constraints are the per-net design rules (the paper's Table 5 values are
// the defaults).
type Constraints struct {
	SkewBound float64 // unit: ps // global target
	MaxFanout int
	MaxCap    float64 // unit: fF
	MaxWL     float64 // unit: um
}

// DefaultConstraints returns Table 5: skew 80 ps, fanout 32, cap 150 fF,
// wirelength 300 µm.
func DefaultConstraints() Constraints {
	return Constraints{SkewBound: 80, MaxFanout: 32, MaxCap: 150, MaxWL: 300}
}

// validate rejects constraints no clock tree can meet. A fanout below 2
// cannot shrink a level (the level loop would never end), and a
// non-positive cap or wirelength limit or a negative skew bound admits no
// legal tree. The float tests are negated so that NaN, for which every
// comparison is false, fails them; +Inf passes as an unbounded limit.
func (c Constraints) validate() error {
	switch {
	case c.MaxFanout < 2:
		return fmt.Errorf("cts: max fanout %d is below 2", c.MaxFanout)
	case !(c.MaxCap > 0):
		return fmt.Errorf("cts: max cap %g fF is not positive", c.MaxCap)
	case !(c.MaxWL > 0):
		return fmt.Errorf("cts: max wirelength %g um is not positive", c.MaxWL)
	case !(c.SkewBound >= 0):
		return fmt.Errorf("cts: skew bound %g ps is not >= 0", c.SkewBound)
	}
	return nil
}

// DelayEst selects how cluster-root insertion delays are estimated for the
// next level's balancing (§3.4, Fig. 5).
type DelayEst int

// Delay estimation modes.
const (
	// EstNone performs no delay annotation: every level balances only its
	// own geometry. This is what naive flows do and what lets skew drift.
	EstNone DelayEst = iota
	// EstLowerBound uses the paper's Equation (7) lower bound for buffer
	// delays in the estimate.
	EstLowerBound
	// EstExact runs full STA-lite on the cluster subtree.
	EstExact
)

// TopoBuilder builds a routing topology for one clock net under the given
// DME options (model, per-level skew bound, sink delay annotations).
// The run cache replays whole runs keyed on BuildID, so every value of this
// type must be a pure function of (net, dopts): no clock, no unseeded
// randomness, no mutable package state, no mutation of the net.
type TopoBuilder func(net *tree.Net, dopts dme.Options) (*tree.Tree, error)

// CBSBuilder returns the default engine: the paper's CBS construction.
func CBSBuilder(method dme.TopoMethod, saltEps float64) TopoBuilder {
	return func(net *tree.Net, dopts dme.Options) (*tree.Tree, error) {
		return core.Build(net, core.Options{DME: dopts, TopoMethod: method, SALTEps: saltEps})
	}
}

// BSTBuilder returns a plain bounded-skew DME engine (no SALT refinement).
func BSTBuilder(method dme.TopoMethod) TopoBuilder {
	return func(net *tree.Net, dopts dme.Options) (*tree.Tree, error) {
		topo := dme.GenTopo(net, method, dopts.LengthBudget(net))
		return dme.Build(net, topo, dopts)
	}
}

// ZSTBuilder returns a zero-skew DME engine under the linear (path length)
// delay model, ignoring delay annotations beyond geometry — the classic
// estimate-blind balancer.
func ZSTBuilder(method dme.TopoMethod) TopoBuilder {
	return func(net *tree.Net, dopts dme.Options) (*tree.Tree, error) {
		lin := dme.Options{Model: dme.Linear, SkewBound: 0}
		topo := dme.GenTopo(net, method, 0)
		return dme.Build(net, topo, lin)
	}
}

// Options configures a hierarchical CTS run.
type Options struct {
	Cons    Constraints
	Tech    tech.Tech
	Lib     *liberty.Library
	Build   TopoBuilder
	Est     DelayEst
	UseSA   bool
	SAIters int
	Seed    int64
	// SourceSlew is the slew of the clock at the die input.
	SourceSlew float64 // unit: ps
	// BufferMargin derates cell max caps during sizing.
	BufferMargin float64 // unit: 1
	// ForceCell, when set, disables load-based buffer sizing in favor of
	// one fixed cell (used by the OpenROAD-like baseline).
	ForceCell string
	// KMeansRestarts > 1 re-seeds clustering that many times and keeps the
	// best silhouette score (sampled on large levels) — the quality knob
	// heavyweight flows pay runtime for.
	KMeansRestarts int
	// Workers bounds the goroutines used for the per-cluster net builds,
	// the k-means passes and the clustering restarts. Values <= 1 run
	// serially; values above GOMAXPROCS are capped to it. Results are
	// byte-identical for every value (see internal/parallel): each level's
	// clusters are independent, and all randomness derives its seed from
	// the task index, never a shared stream.
	Workers int
	// Obs, when non-nil, records stage spans, kernel counters and per-level
	// QoR into the recorder. nil disables observability entirely; the
	// synthesized tree is byte-identical either way — the recorder observes,
	// it never feeds back into any algorithm decision.
	Obs *obs.Recorder
	// Cache, when non-nil, replays a stored run instead of recomputing it
	// (see runcache.go). Requires a non-empty BuildID; results are
	// byte-identical with the cache on or off, cold or warm — the property
	// TestCacheByteIdentity enforces.
	Cache *cache.Cache
	// BuildID names the Build function for cache keying: closures cannot be
	// content-hashed, so the caller vouches for the builder's identity with a
	// stable string (e.g. "cbs/greedydist/0.10"). Caching is disabled while
	// BuildID is empty — an unnamed builder is never silently keyed.
	BuildID string
	// Ctx, when non-nil, lets callers cancel a running synthesis: the flow
	// observes it at every stage boundary (before each level, the top net and
	// the timing pass) and between cluster-build tasks, returning ctx.Err()
	// wrapped with the stage it refused to start. nil means never cancelled.
	// Like Workers and Obs, Ctx is deliberately unkeyed by the run cache:
	// cancellation changes when a run stops, never what a completed run
	// produces — a cancelled run returns an error and stores nothing.
	Ctx context.Context
}

// DefaultOptions returns the paper's configuration: CBS topology engine,
// Eq-7 delay estimation, SA-refined partitioning, Table 5 constraints.
func DefaultOptions() Options {
	return Options{
		Cons:           DefaultConstraints(),
		Tech:           tech.Default28nm(),
		Lib:            liberty.Default(),
		Build:          CBSBuilder(dme.GreedyDist, 0.1),
		BuildID:        "cbs/greedydist/0.10",
		Est:            EstLowerBound,
		UseSA:          true,
		SAIters:        2000,
		Seed:           1,
		SourceSlew:     20,
		BufferMargin:   0.9,
		KMeansRestarts: 2,
	}
}

// Result is a completed synthesis.
type Result struct {
	Tree     *tree.Tree
	Report   *timing.Report
	Levels   int
	Clusters []int // cluster count per level, bottom-up
}

// clockNode is one balancing point at the current level: an FF sink at
// level 0, a cluster driver input above.
type clockNode struct {
	loc   geom.Point
	cap   float64 // unit: fF // input capacitance seen by the level net
	delay float64 // unit: ps // estimated insertion delay below this node
	sub   *tree.Node
}

// Run synthesizes the clock tree for the design. The result is a pure
// function of (d, opts) that Workers, Obs and Ctx never change — the
// contract the run cache keys against (see runcache.go). With a store
// attached, Run consults it once: a hit replays the stored tree and level
// records, a miss synthesizes and, once the run completes, stores them.
func Run(d *design.Design, opts Options) (*Result, error) {
	if err := opts.Cons.validate(); err != nil {
		return nil, err
	}
	flat := d.Net()
	if err := flat.Validate(); err != nil {
		return nil, err
	}
	opts.Obs.SetMeta(d.Name, "sllt-cts", opts.Seed, opts.Workers)

	// Caching is off without a store, or without a BuildID to vouch for
	// the builder's identity.
	store := opts.Cache
	if opts.BuildID == "" {
		store = nil
	}
	var (
		key    cache.Key
		did    cache.StageStats // this run's own store traffic
		res    *Result
		levels []obs.LevelQoR
	)
	if store != nil {
		key = runKey(opts, d.ClockRoot, flat.Sinks)
		res, levels, did = loadRun(store, key)
	}
	hit := res != nil
	if hit {
		for _, q := range levels {
			opts.Obs.AddLevel(q)
		}
	} else {
		var err error
		if res, levels, err = synthesize(flat.Sinks, d.ClockRoot, opts, store != nil); err != nil {
			return nil, err
		}
	}

	if err := ctxErr(opts.Ctx, "timing", -1); err != nil {
		return nil, err
	}
	asp := opts.Obs.Begin("timing")
	rep, err := timing.Analyze(res.Tree, opts.Lib, opts.Tech, opts.SourceSlew)
	asp.End()
	if err != nil {
		return nil, err
	}
	res.Report = rep
	if store != nil && !hit {
		did = did.Add(store.Put(stageRun, key, encodeRunEntry(levels, res.Tree.Root)))
	}
	if opts.Obs.Enabled() {
		if store != nil {
			opts.Obs.SetCache(cacheReport(did))
		}
		opts.Obs.SetTotals(obs.Totals{
			WL:          rep.WL,
			Skew:        rep.Skew,
			MaxLatency:  rep.MaxLatency,
			Buffers:     rep.Buffers,
			BufArea:     rep.BufArea,
			ClockCap:    rep.ClockCap,
			MaxStageCap: rep.MaxStgCap,
			MaxSlew:     rep.MaxSlew,
		})
	}
	return res, nil
}

// synthesize is the flow proper: the level loop over the sinks, then the
// top net from the clock root. Each level's QoR record reaches the recorder
// as the level completes. Records are built only when a recorder is
// attached or keep asks for them (the run cache stores them); synthesize
// returns those it built.
func synthesize(sinks []tree.PinSink, root geom.Point, opts Options, keep bool) (*Result, []obs.LevelQoR, error) {
	nodes := make([]clockNode, len(sinks))
	for i, s := range sinks {
		leaf := tree.NewNode(tree.Sink, s.Loc)
		leaf.Name = s.Name
		leaf.PinCap = s.Cap
		leaf.SinkIdx = i
		nodes[i] = clockNode{loc: s.Loc, cap: s.Cap, delay: 0, sub: leaf}
	}
	var levels []obs.LevelQoR
	var addLevel func(obs.LevelQoR)
	if keep || opts.Obs.Enabled() {
		addLevel = func(q obs.LevelQoR) {
			opts.Obs.AddLevel(q)
			levels = append(levels, q)
		}
	}
	res := &Result{}
	ins := buffering.NewInserter(opts.Lib, opts.Tech, opts.Cons.MaxCap)
	ins.Margin = opts.BufferMargin
	ins.ForceCell = opts.ForceCell
	ins.Kernel = opts.Obs.Kernel()

	// Per-net skew spans telescope across levels (a net's span adds to the
	// spread its cluster roots already carry), so every level gets an equal
	// share of the global budget and the shares sum to the bound.
	levelBound := levelShare(opts.Cons.SkewBound, estLevels(len(nodes), opts.Cons.MaxFanout))
	for len(nodes) > opts.Cons.MaxFanout {
		if err := ctxErr(opts.Ctx, "level", res.Levels); err != nil {
			return nil, nil, err
		}
		next, k, err := buildLevel(nodes, opts, ins, levelBound, res.Levels, addLevel)
		if err != nil {
			return nil, nil, fmt.Errorf("cts level %d: %w", res.Levels, err)
		}
		if len(next) >= len(nodes) {
			return nil, nil, fmt.Errorf("cts level %d: no progress (%d -> %d nodes)", res.Levels, len(nodes), len(next))
		}
		nodes = next
		res.Clusters = append(res.Clusters, k)
		res.Levels++
	}

	if err := ctxErr(opts.Ctx, "top_net", -1); err != nil {
		return nil, nil, err
	}
	top, q, err := buildTopNet(root, nodes, opts, ins, levelBound)
	if err != nil {
		return nil, nil, fmt.Errorf("cts top net: %w", err)
	}
	res.Levels++
	res.Clusters = append(res.Clusters, 1)
	res.Tree = &tree.Tree{Root: top}
	if addLevel != nil {
		addLevel(obs.LevelQoR{
			Level:    res.Levels - 1,
			Nodes:    len(nodes),
			Clusters: 1,
			WL:       q.WL,
			Buffers:  q.Buffers,
			BufArea:  q.BufArea,
		})
	}
	return res, levels, nil
}

// ctxErr reports ctx's cancellation wrapped with the stage the flow refused
// to start ("level 2", "top_net", ...; level < 0 omits the number). A nil
// ctx never cancels — the zero-cost default for library callers.
func ctxErr(ctx context.Context, stage string, level int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		if level >= 0 {
			return fmt.Errorf("cts: cancelled before %s %d: %w", stage, level, err)
		}
		return fmt.Errorf("cts: cancelled before %s: %w", stage, err)
	}
	return nil
}

// estLevels predicts how many partition levels remain for n nodes.
func estLevels(n, fanout int) int {
	levels := 1
	for n > fanout {
		n = (n + fanout - 1) / fanout
		levels++
	}
	return levels
}

// levelShare splits the global skew budget across remaining levels: net
// spans telescope, so the sum of per-level bounds bounds the global skew.
//
// unit: skew ps -> ps
func levelShare(skew float64, levelsLeft int) float64 {
	if levelsLeft < 1 {
		levelsLeft = 1
	}
	return skew / float64(levelsLeft)
}

// partitionLevel is the paper's step (1): balanced k-means over the level's
// balancing points (restarted and silhouette-scored when asked), min-cost
// flow assignment under the fanout cap, and optional SA refinement. It
// returns each node's cluster, the cluster count and the assignment method
// that ran, plus the SA stats when observability wants them.
func partitionLevel(nodes []clockNode, opts Options, level int, lv *obs.Span) (levelPartition, *partition.SAStats, error) {
	pts := make([]geom.Point, len(nodes))
	caps := make([]float64, len(nodes))
	var capTotal float64
	for i := range nodes {
		pts[i] = nodes[i].loc
		caps[i] = nodes[i].cap
		capTotal += nodes[i].cap
	}
	k := len(nodes)/opts.Cons.MaxFanout + 1
	if byCap := int(capTotal/(opts.Cons.MaxCap*0.5)) + 1; byCap > k {
		k = byCap
	}
	if k > len(nodes) {
		k = len(nodes)
	}

	psp := lv.Begin("partition")
	defer psp.End()
	centers, err := bestClustering(pts, k, opts, level, psp)
	if err != nil {
		return levelPartition{}, nil, err
	}
	assign, method := partition.BalancedAssignK(pts, centers, opts.Cons.MaxFanout, opts.Obs.Kernel())
	var saStats *partition.SAStats
	if opts.UseSA {
		sa := partition.DefaultSAOptions(opts.Seed + int64(level))
		// Fixed iteration counts vanish on hundred-thousand-sink levels;
		// scale the budget so every sink gets a chance to move.
		sa.Iters = opts.SAIters
		if min := 2 * len(nodes); sa.Iters < min {
			sa.Iters = min
		}
		sa.CPerUm = opts.Tech.CPerUm
		sa.MaxCap = opts.Cons.MaxCap
		sa.MaxWL = opts.Cons.MaxWL
		sa.MaxFanout = opts.Cons.MaxFanout
		if opts.Obs.Enabled() {
			saStats = &partition.SAStats{}
			sa.Stats = saStats
			sa.Kernel = opts.Obs.Kernel()
		}
		assign = partition.RefineSA(pts, caps, k, assign, sa)
	}
	return levelPartition{k: k, method: method, assign: assign}, saStats, nil
}

// levelPartition is partitionLevel's result: the cluster count, the
// assignment method that ran and each node's cluster.
type levelPartition struct {
	k      int
	method string
	assign []int
}

// buildLevel partitions the nodes, builds one buffered net per cluster and
// returns the next level's nodes with the cluster count. A non-nil addLevel
// receives the level's QoR record.
//
// unit: levelBound ps ->
func buildLevel(nodes []clockNode, opts Options, ins *buffering.Inserter, levelBound float64, level int, addLevel func(obs.LevelQoR)) ([]clockNode, int, error) {
	lv := opts.Obs.Begin("level")
	defer lv.End()
	kprev := opts.Obs.Kernel().Snapshot()

	part, saStats, err := partitionLevel(nodes, opts, level, lv)
	if err != nil {
		return nil, 0, err
	}

	// Bucket members per cluster: ascending cluster id, then ascending node
	// index within a cluster. Cluster and member order fix every downstream
	// tree, so this order is part of the byte-identity contract. Empty
	// clusters build no net.
	buckets := make([][]int, part.k)
	for i, a := range part.assign {
		buckets[a] = append(buckets[a], i)
	}
	var clusters [][]clockNode
	for _, mem := range buckets {
		if len(mem) == 0 {
			continue
		}
		cluster := make([]clockNode, len(mem))
		for i, m := range mem {
			cluster[i] = nodes[m]
		}
		clusters = append(clusters, cluster)
	}

	// The clusters are independent nets: each build touches only its own
	// members' subtrees, the Inserter is read-only (see buffering.Inserter),
	// and nothing in the build consumes shared randomness — so the loop fans
	// out, with each task writing only its own next[ci] and qors[ci] slots
	// (kernel counters and the latency histogram are atomic, hence
	// order-independent).
	csp := lv.Begin("clusters")
	latDist := opts.Obs.Dist("cts.cluster.latency", obs.UnitPs, latencyBounds)
	qors := make([]obs.NetQoR, len(clusters))
	next := make([]clockNode, len(clusters))
	err = parallel.ForEachSpanCtx(opts.Ctx, opts.Workers, len(clusters), csp, "cluster", func(ci int) error {
		cluster := clusters[ci]
		sub, q, err := buildNet(centroidOf(cluster), cluster, opts, ins, levelBound)
		if err != nil {
			return err
		}
		// The cluster tree is rooted at a Source node at the centroid whose
		// only child is the driver buffer; the driver is the next level's
		// balancing point.
		driver := sub.Root.Children[0]
		driver.Detach()
		est, err := estimateLatency(driver, opts)
		if err != nil {
			return err
		}
		qors[ci] = q
		latDist.Observe(est)
		next[ci] = clockNode{loc: driver.Loc, cap: driver.PinCap, delay: est, sub: driver}
		return nil
	})
	csp.End()
	if err != nil {
		return nil, 0, err
	}
	if addLevel != nil {
		addLevel(levelQoR(level, nodes, clusters, next, qors, part.method, saStats, opts, kprev))
	}
	return next, len(clusters), nil
}

// latencyBounds are the cluster-latency histogram bucket bounds. unit: ps
var latencyBounds = []float64{25, 50, 100, 200, 400, 800}

// levelQoR assembles one level's QoR record: per-task NetQoR slots summed
// in index order, skew/latency spread over the next level's delay
// annotations, and the kernel-counter delta since the level began. Runs
// serially after the cluster fan-out has joined.
func levelQoR(level int, nodes []clockNode, clusters [][]clockNode, next []clockNode, qors []obs.NetQoR, method string, saStats *partition.SAStats, opts Options, kprev obs.KernelSnapshot) obs.LevelQoR {
	q := obs.LevelQoR{
		Level:          level,
		Nodes:          len(nodes),
		Clusters:       len(clusters),
		AssignMethod:   method,
		KMeansRestarts: 1,
	}
	if opts.KMeansRestarts > 1 {
		q.KMeansRestarts = opts.KMeansRestarts
	}
	for i := range qors {
		q.WL += qors[i].WL
		q.Buffers += qors[i].Buffers
		q.BufArea += qors[i].BufArea
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range next {
		if d := next[i].delay; d < lo {
			lo = d
		}
		if d := next[i].delay; d > hi {
			hi = d
		}
	}
	if len(next) > 0 {
		q.Skew = hi - lo
		q.MaxLatency = hi
	}
	for _, cl := range clusters {
		var s float64
		for i := range cl {
			s += cl[i].cap
		}
		if s > q.MaxClusterCap {
			q.MaxClusterCap = s
		}
	}
	if saStats != nil {
		q.SAProposed = saStats.Proposed
		q.SAAccepted = saStats.Accepted
		if saStats.Proposed > 0 {
			q.SAAcceptRate = float64(saStats.Accepted) / float64(saStats.Proposed)
		}
	}
	delta := opts.Obs.Kernel().Snapshot().Sub(kprev)
	q.KMeansIters = int(delta.KMeansIters)
	q.GridQueries = delta.GridQueries
	q.GridRingSteps = delta.GridRingSteps
	if delta.GridQueries > 0 {
		if hr := 1 - float64(delta.GridRingSteps)/float64(delta.GridQueries); hr > 0 {
			q.GridHitRate = hr
		}
	}
	return q
}

// bestClustering runs k-means once, or — when KMeansRestarts asks for it —
// several times with different seeds, scoring each run by silhouette
// (subsampled on large levels to keep the O(n²) score tractable) and
// keeping the best. Restarts are independent — restart r's seed is derived
// from its index (base + r·1009), never from a shared stream — so they fan
// out across workers, each task writing only its own slot; the best-score
// reduction then runs serially in restart order so ties keep the earliest
// restart, exactly like the serial loop. A restart can only fail by
// panicking, which the fan-out surfaces as a *parallel.PanicError; it must
// be propagated, not dropped — a swallowed panic here would hand the
// assignment step zero-valued centers.
func bestClustering(pts []geom.Point, k int, opts Options, level int, sp *obs.Span) ([]geom.Point, error) {
	kern := opts.Obs.Kernel()
	restarts := opts.KMeansRestarts
	if restarts < 1 {
		restarts = 1
	}
	base := opts.Seed + int64(level)
	if restarts == 1 {
		centers, _ := partition.KMeansPK(pts, k, 24, base, opts.Workers, kern)
		return centers, nil
	}
	// Split the worker budget: the outer fan-out covers the restarts, the
	// remainder parallelizes each restart's k-means and silhouette passes.
	outer := parallel.Clamp(opts.Workers)
	inner := outer / restarts
	if inner < 1 {
		inner = 1
	}
	type restartResult struct {
		centers []geom.Point
		score   float64
	}
	results := make([]restartResult, restarts)
	if err := parallel.ForEachSpan(outer, restarts, sp, "restart", func(r int) error {
		c, a := partition.KMeansPK(pts, k, 24, base+int64(r)*1009, inner, kern)
		s, sa := silhouetteSample(pts, a, 2500)
		results[r] = restartResult{c, partition.SilhouetteP(s, sa, k, inner)}
		return nil
	}); err != nil {
		return nil, err
	}
	best := results[0]
	for r := 1; r < restarts; r++ {
		if results[r].score > best.score {
			best = results[r]
		}
	}
	return best.centers, nil
}

// buildTopNet is the flow's final construction stage: one buffered net from
// the clock source to the surviving cluster drivers. Returns the finished
// tree's root with the net's own QoR (wire and buffers before grafting
// pulls the lower levels in).
//
// unit: levelBound ps ->
func buildTopNet(root geom.Point, nodes []clockNode, opts Options, ins *buffering.Inserter, levelBound float64) (*tree.Node, obs.NetQoR, error) {
	tsp := opts.Obs.Begin("top_net")
	defer tsp.End()
	top, q, err := buildNet(root, nodes, opts, ins, levelBound)
	if err != nil {
		return nil, obs.NetQoR{}, err
	}
	return top.Root, q, nil
}

// silhouetteSample deterministically subsamples points (stride sampling)
// for silhouette scoring.
func silhouetteSample(pts []geom.Point, assign []int, max int) ([]geom.Point, []int) {
	if len(pts) <= max {
		return pts, assign
	}
	stride := (len(pts) + max - 1) / max
	n := (len(pts) + stride - 1) / stride
	sp := make([]geom.Point, 0, n)
	sa := make([]int, 0, n)
	for i := 0; i < len(pts); i += stride {
		sp = append(sp, pts[i])
		sa = append(sa, assign[i])
	}
	return sp, sa
}

func centroidOf(nodes []clockNode) geom.Point {
	var sx, sy float64
	for i := range nodes {
		sx += nodes[i].loc.X
		sy += nodes[i].loc.Y
	}
	n := float64(len(nodes))
	return geom.Pt(sx/n, sy/n)
}

// buildNet constructs one buffered clock net: routing topology over the
// nodes, driver + repeater insertion, buffered skew repair, and grafting of
// the nodes' subtrees under the new net's leaves. The returned tree is
// rooted at a Source node at src; the returned QoR is the net's own wire
// and buffers, measured before grafting.
//
// unit: levelBound ps ->
func buildNet(src geom.Point, nodes []clockNode, opts Options, ins *buffering.Inserter, levelBound float64) (*tree.Tree, obs.NetQoR, error) {
	net := &tree.Net{Name: "lvl", Source: src}
	for i := range nodes {
		net.Sinks = append(net.Sinks, tree.PinSink{
			Name: fmt.Sprintf("n%d", i),
			Loc:  nodes[i].loc,
			Cap:  nodes[i].cap,
		})
	}
	dopts := dme.Options{
		Model:     dme.Elmore,
		SkewBound: levelBound,
		Tech:      opts.Tech,
		SinkDelay: func(i int, s tree.PinSink) float64 { return nodes[i].delay },
		// Merging regions widen the per-merge delay interval by up to the
		// level's whole skew share — budget the hierarchical flow already
		// spends on cross-level annotation error. Double-spending it forces
		// the post-buffer repair into heavy snaking whose capacitance slows
		// the critical path, so level nets use classic merging segments;
		// regions remain the default for standalone net construction.
		RegionGreed: dme.SegmentRegions,
		Kernel:      opts.Obs.Kernel(),
	}
	if opts.Est == EstNone {
		dopts.SinkDelay = nil
	}
	t, err := opts.Build(net, dopts)
	if err != nil {
		return nil, obs.NetQoR{}, err
	}
	ins.BufferTree(t)
	if opts.Est != EstNone {
		repairBuffered(t, opts, dopts, levelBound)
		// Repair pads fast subtrees by snaking; a long serpentine's
		// capacitance would slow the whole stage that drives it, so cut the
		// snakes behind repeaters and settle the skew once more.
		if ins.DecoupleSlowWires(t) > 0 {
			repairBuffered(t, opts, dopts, levelBound)
		}
	}

	// Measure the net's own resources before grafting pulls the lower
	// levels' wire and buffers into the tree.
	q := obs.NetQoR{WL: t.Wirelength()}
	for _, bn := range t.Buffers() {
		q.Buffers++
		if cell := opts.Lib.Cell(bn.BufCell); cell != nil {
			q.BufArea += cell.Area
		}
	}

	// Graft: replace each leaf sink with the node's real subtree.
	for _, s := range t.Sinks() {
		idx := s.SinkIdx
		if idx < 0 || idx >= len(nodes) {
			return nil, obs.NetQoR{}, fmt.Errorf("cts: net leaf with invalid index %d", idx)
		}
		sub := nodes[idx].sub
		p := s.Parent
		edge := s.EdgeLen
		s.Detach()
		sub.Parent = p
		sub.EdgeLen = edge
		p.Children = append(p.Children, sub)
	}
	return t, q, nil
}
