package cts

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"sllt/internal/cache"
	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/obs"
	"sllt/internal/tree"
)

// cacheTestDesign generates a Table-4-class design small enough to run the
// flow several times per test.
func cacheTestDesign(seed int64) *design.Design {
	return designgen.Generate(designgen.Spec{Name: "cachegen", Insts: 600, FFs: 120, Util: 0.6}, seed)
}

type cacheFlowOut struct {
	def string
	fp  string
	res *Result
}

func runCacheFlow(t *testing.T, d *design.Design, mut func(*Options)) cacheFlowOut {
	t.Helper()
	opts := DefaultOptions()
	opts.SAIters = 40
	if mut != nil {
		mut(&opts)
	}
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return cacheFlowOut{def: ExportDEF(d, res).WriteDEF(), fp: tree.Fingerprint(res.Tree), res: res}
}

// TestCacheByteIdentity is the cache's core correctness property: attaching
// a store must never change a byte of the synthesized result — not on the
// cold run that populates it, not on the warm run that replays it, at any
// worker count, with observability on or off. A divergence means a codec
// dropped a field, a key missed an input, or replay skipped a side effect
// the result depends on.
func TestCacheByteIdentity(t *testing.T) {
	designs := map[string]func() *design.Design{
		"golden": goldenDesign,
		"gen":    func() *design.Design { return cacheTestDesign(5) },
	}
	for name, mk := range designs {
		t.Run(name, func(t *testing.T) {
			base := runCacheFlow(t, mk(), func(o *Options) { o.Workers = 1 })

			c, err := cache.New(cache.Config{})
			if err != nil {
				t.Fatal(err)
			}
			variants := map[string]func(*Options){
				"cold W=1":        func(o *Options) { o.Workers = 1; o.Cache = c },
				"warm W=1":        func(o *Options) { o.Workers = 1; o.Cache = c },
				"warm W=8":        func(o *Options) { o.Workers = 8; o.Cache = c },
				"warm W=8 obs on": func(o *Options) { o.Workers = 8; o.Cache = c; o.Obs = obs.New(obs.NewManualClock(1)) },
			}
			// Order matters (cold populates, warm replays): iterate explicitly.
			for _, label := range []string{"cold W=1", "warm W=1", "warm W=8", "warm W=8 obs on"} {
				got := runCacheFlow(t, mk(), variants[label])
				if got.fp != base.fp {
					t.Errorf("%s: tree fingerprint differs from uncached W=1", label)
				}
				if got.def != base.def {
					t.Errorf("%s: exported DEF differs from uncached W=1 (lengths %d vs %d)",
						label, len(got.def), len(base.def))
				}
			}

			// A cache warmed at W=8 must serve a W=1 run: workers are not keyed.
			c2, err := cache.New(cache.Config{})
			if err != nil {
				t.Fatal(err)
			}
			runCacheFlow(t, mk(), func(o *Options) { o.Workers = 8; o.Cache = c2 })
			prev := c2.Stats()
			got := runCacheFlow(t, mk(), func(o *Options) { o.Workers = 1; o.Cache = c2 })
			if got.fp != base.fp || got.def != base.def {
				t.Error("W=1 replay of a W=8-warmed cache differs from uncached run")
			}
			if d := c2.Stats().Sub(prev).Total(); d.Misses != 0 {
				t.Errorf("W=1 run against W=8-warmed cache missed %d times, want 0", d.Misses)
			}
		})
	}
}

// TestCacheWarmHitRates pins the replay economics: an identical re-run must
// hit on every consulted stage — partition once per level, one cluster build
// per cluster, one top net, one timing pass — and recompute nothing.
func TestCacheWarmHitRates(t *testing.T) {
	d := cacheTestDesign(7)
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cold := runCacheFlow(t, d, func(o *Options) { o.Cache = c })
	prev := c.Stats()
	warm := runCacheFlow(t, cacheTestDesign(7), func(o *Options) { o.Cache = c })
	delta := c.Stats().Sub(prev)

	if warm.fp != cold.fp {
		t.Fatal("warm replay fingerprint differs from cold run")
	}
	total := delta.Total()
	if total.Misses != 0 {
		t.Errorf("warm run missed %d times, want 0 (per stage: %+v)", total.Misses, delta.Stages)
	}
	clusters := 0
	for _, k := range cold.res.Clusters[:len(cold.res.Clusters)-1] {
		clusters += k
	}
	if got := delta.Stages[stageCluster].Hits; got != int64(clusters) {
		t.Errorf("cluster stage hits = %d, want one per cluster = %d", got, clusters)
	}
	if got := delta.Stages[stagePartition].Hits; got != int64(cold.res.Levels-1) {
		t.Errorf("partition hits = %d, want one per partitioned level = %d", got, cold.res.Levels-1)
	}
	for _, stage := range []string{stageTopNet, stageTiming} {
		if got := delta.Stages[stage].Hits; got != 1 {
			t.Errorf("%s hits = %d, want 1", stage, got)
		}
	}
}

// TestCacheWarmReplayQoR pins what a warm replay reports: the store is
// warmed with observability off, so every stored cluster and top-net entry
// must still carry its net's QoR. Each level record of an observed replay
// must then match an uncached observed run's (kernel counters aside:
// nothing runs on a replay).
func TestCacheWarmReplayQoR(t *testing.T) {
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runCacheFlow(t, cacheTestDesign(17), func(o *Options) { o.Cache = c })
	prev := c.Stats()
	warm := obs.New(obs.NewManualClock(1))
	runCacheFlow(t, cacheTestDesign(17), func(o *Options) { o.Cache = c; o.Obs = warm })
	if d := c.Stats().Sub(prev).Total(); d.Misses != 0 {
		t.Fatalf("warm run missed %d times, want a full replay", d.Misses)
	}
	fresh := obs.New(obs.NewManualClock(1))
	runCacheFlow(t, cacheTestDesign(17), func(o *Options) { o.Obs = fresh })

	qor := func(q obs.LevelQoR) obs.LevelQoR {
		return obs.LevelQoR{
			Level: q.Level, Nodes: q.Nodes, Clusters: q.Clusters,
			WL: q.WL, Skew: q.Skew, MaxLatency: q.MaxLatency, MaxClusterCap: q.MaxClusterCap,
			Buffers: q.Buffers, BufArea: q.BufArea, AssignMethod: q.AssignMethod,
		}
	}
	got, want := warm.Snapshot().Levels, fresh.Snapshot().Levels
	if len(got) != len(want) {
		t.Fatalf("replay reports %d levels, fresh run %d", len(got), len(want))
	}
	for i := range want {
		if qor(got[i]) != qor(want[i]) {
			t.Errorf("level %d QoR differs:\nreplay %+v\nfresh  %+v", i, qor(got[i]), qor(want[i]))
		}
	}
}

// TestCacheDiskWarm round-trips the flow through the on-disk tier: a second
// Cache over the same directory (cold memory) must replay every stage from
// disk and produce a byte-identical result.
func TestCacheDiskWarm(t *testing.T) {
	dir := t.TempDir()
	c1, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold := runCacheFlow(t, cacheTestDesign(9), func(o *Options) { o.Cache = c1 })

	c2, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm := runCacheFlow(t, cacheTestDesign(9), func(o *Options) { o.Cache = c2 })
	if warm.fp != cold.fp || warm.def != cold.def {
		t.Error("disk-warmed replay differs from cold run")
	}
	total := c2.Stats().Total()
	if total.Misses != 0 {
		t.Errorf("disk-warmed run missed %d times, want 0", total.Misses)
	}
	if total.BytesRead == 0 {
		t.Error("disk-warmed run read 0 bytes from the disk tier")
	}
}

// TestCacheECO is the incremental re-run property: after moving one sink,
// the warm run must (a) stay byte-identical to an uncached run of the moved
// design, and (b) replay the clusters the move did not dirty — the point of
// hierarchical identity propagation. SA refinement is off here: annealing
// acceptance cascades make cluster membership chaotic under perturbation,
// which is an ECO-economics property of the partitioner, not of the cache.
func TestCacheECO(t *testing.T) {
	mk := func() *design.Design {
		return designgen.Generate(designgen.Spec{Name: "ecogen", Insts: 900, FFs: 180, Util: 0.6}, 11)
	}
	move := func(d *design.Design) *design.Design {
		for i := range d.Insts {
			if d.Insts[i].IsSink {
				d.Insts[i].Loc.X += 1.0
				d.Insts[i].Loc.Y += 0.5
				break
			}
		}
		return d
	}
	noSA := func(o *Options) { o.UseSA = false }

	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runCacheFlow(t, mk(), func(o *Options) { noSA(o); o.Cache = c })

	prev := c.Stats()
	eco := runCacheFlow(t, move(mk()), func(o *Options) { noSA(o); o.Cache = c })
	delta := c.Stats().Sub(prev)

	plain := runCacheFlow(t, move(mk()), noSA)
	if eco.fp != plain.fp || eco.def != plain.def {
		t.Error("ECO replay differs from uncached run of the moved design")
	}

	cs := delta.Stages[stageCluster]
	if cs.Hits == 0 {
		t.Errorf("ECO run replayed no clusters (hits=0, misses=%d): dirtiness is not localized", cs.Misses)
	}
	if cs.Misses == 0 {
		t.Error("ECO run rebuilt no clusters: the moved sink's cluster should have missed")
	}
	t.Logf("ECO cluster economics: %d replayed, %d rebuilt (hit rate %.0f%%)",
		cs.Hits, cs.Misses, 100*cs.HitRate())
}

// TestCacheReportSection checks the obs integration: a cached run's report
// carries the v1.1 cache section with consistent totals, and it validates.
func TestCacheReportSection(t *testing.T) {
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := cacheTestDesign(13)
	rec := obs.New(obs.NewManualClock(1))
	runCacheFlow(t, d, func(o *Options) { o.Cache = c; o.Obs = rec })
	rep := rec.Snapshot()
	if rep.Cache == nil {
		t.Fatal("cached+observed run produced a report without a cache section")
	}
	if rep.Cache.Misses == 0 || rep.Cache.Puts == 0 {
		t.Errorf("cold run cache section implausible: %+v", rep.Cache)
	}
	var hits, misses int64
	for _, s := range rep.Cache.Stages {
		hits += s.Hits
		misses += s.Misses
	}
	if hits != rep.Cache.Hits || misses != rep.Cache.Misses {
		t.Errorf("cache section totals (%d/%d) disagree with per-stage sums (%d/%d)",
			rep.Cache.Hits, rep.Cache.Misses, hits, misses)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateReport(data); err != nil {
		t.Fatalf("report with cache section does not validate: %v", err)
	}

	// An uncached run must omit the section entirely.
	rec2 := obs.New(obs.NewManualClock(1))
	runCacheFlow(t, cacheTestDesign(13), func(o *Options) { o.Obs = rec2 })
	if rec2.Snapshot().Cache != nil {
		t.Error("uncached run's report has a cache section")
	}
}

// TestCacheRequiresBuildID pins the admission rule for unnamed builders: a
// store without a BuildID must never be consulted — closures cannot be
// hashed, so keying an anonymous builder would alias distinct topologies.
func TestCacheRequiresBuildID(t *testing.T) {
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runCacheFlow(t, goldenDesign(), func(o *Options) { o.Cache = c; o.BuildID = "" })
	if total := c.Stats().Total(); total != (cache.StageStats{}) {
		t.Errorf("flow with empty BuildID touched the cache: %+v", total)
	}
	if c.Len() != 0 {
		t.Errorf("flow with empty BuildID stored %d entries", c.Len())
	}
}

// TestCachedStagesAreAnnotated is the admission gate's bookkeeping: every
// stage the driver caches must be declared `// stage: <name>` on a function
// the stagepure analyzer verifies (cts owns partition/cluster_build/top_net;
// timing.Analyze owns timing). A cached-but-unannotated stage would replay
// results nothing ever proved pure.
func TestCachedStagesAreAnnotated(t *testing.T) {
	re := regexp.MustCompile(`(?m)^// stage: ([a-z_]+)$`)
	annotated := map[string]bool{}
	for _, dir := range []string{".", filepath.Join("..", "timing")} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
				continue
			}
			src, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range re.FindAllStringSubmatch(string(src), -1) {
				annotated[m[1]] = true
			}
		}
	}
	for _, stage := range cachedStages {
		if !annotated[stage] {
			t.Errorf("cached stage %q has no `// stage: %s` annotation (stagepure admission gate)", stage, stage)
		}
	}
}
