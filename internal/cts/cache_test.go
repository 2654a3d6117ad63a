package cts

import (
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
	return cacheFlowOut{def: ExportDEF(d, res).WriteDEF(), fp: tree.Fingerprint(res.Tree)}
}

// TestCacheByteIdentity is the cache's core correctness property: attaching
// a store must never change a byte of the synthesized result — not on the
// cold run that populates it, not on the warm run that replays it, at any
// worker count, with observability on or off. A divergence means a codec
// dropped a field, a key missed an input, or replay skipped a side effect
// the result depends on.
//
// It is also the run cache's purity check: every warm run must be one hit
// and no miss. A flow that read state the key omits would export a
// different DEF on a warm run than the uncached run does. The multilevel
// design partitions above level 0, where node delays are nonzero.
func TestCacheByteIdentity(t *testing.T) {
	designs := map[string]func() *design.Design{
		"golden": goldenDesign,
		"gen":    func() *design.Design { return cacheTestDesign(5) },
		"multilevel": func() *design.Design {
			return designgen.Generate(designgen.Spec{Name: "multilevel", Insts: 6000, FFs: 1400, Util: 0.6}, 7)
		},
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
				prev := c.Stats()
				got := runCacheFlow(t, mk(), variants[label])
				if label != "cold W=1" {
					checkFullReplay(t, label, prev, c.Stats())
				}
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
			checkFullReplay(t, "W=1 run against W=8-warmed cache", prev, c2.Stats())
		})
	}
}

// checkFullReplay fails t unless the store's counters went from before to
// after by one hit on the run stage and no miss: the traffic of one warm
// run that had the store to itself.
func checkFullReplay(t *testing.T, label string, before, after cache.Stats) {
	t.Helper()
	b, a := before.Stages[stageRun], after.Stages[stageRun]
	if len(after.Stages) != 1 || a.Hits-b.Hits != 1 || a.Misses != b.Misses {
		t.Errorf("%s: store traffic went from %+v to %+v, want one %s hit and no miss",
			label, before.Stages, after.Stages, stageRun)
	}
}

// checkSection fails t unless the report rec recorded carries a cache
// section of exactly the given hits, misses and puts.
func checkSection(t *testing.T, label string, rec *obs.Recorder, hits, misses, puts int64) {
	t.Helper()
	s := rec.Snapshot().Cache
	if s == nil {
		t.Fatalf("%s: report has no cache section", label)
	}
	if s.Hits != hits || s.Misses != misses || s.Puts != puts {
		t.Errorf("%s: cache section reads hits %d, misses %d, puts %d; want %d, %d, %d",
			label, s.Hits, s.Misses, s.Puts, hits, misses, puts)
	}
}

// TestCacheWarmReplayQoR pins what a warm replay reports: the store is
// warmed with observability off, so the stored entry must still carry every
// level's QoR. Each level record of an observed replay must then match an
// uncached observed run's (kernel counters aside: nothing runs on a
// replay).
func TestCacheWarmReplayQoR(t *testing.T) {
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runCacheFlow(t, cacheTestDesign(17), func(o *Options) { o.Cache = c })
	prev := c.Stats()
	warm := obs.New(obs.NewManualClock(1))
	runCacheFlow(t, cacheTestDesign(17), func(o *Options) { o.Cache = c; o.Obs = warm })
	checkFullReplay(t, "observed warm run", prev, c.Stats())
	fresh := obs.New(obs.NewManualClock(1))
	runCacheFlow(t, cacheTestDesign(17), func(o *Options) { o.Obs = fresh })

	qor := func(q obs.LevelQoR) obs.LevelQoR {
		return obs.LevelQoR{
			Level: q.Level, Nodes: q.Nodes, Clusters: q.Clusters,
			WL: q.WL, Skew: q.Skew, MaxLatency: q.MaxLatency, MaxClusterCap: q.MaxClusterCap,
			Buffers: q.Buffers, BufArea: q.BufArea, KMeansRestarts: q.KMeansRestarts,
			AssignMethod: q.AssignMethod,
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
// Cache over the same directory (cold memory) must replay the run from disk
// and produce a byte-identical result.
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
	checkFullReplay(t, "disk-warmed run", cache.Stats{}, c2.Stats())
	if c2.Stats().Total().BytesRead == 0 {
		t.Error("disk-warmed run read 0 bytes from the disk tier")
	}
}

// TestCacheECO re-runs a design after moving one sink against the store
// the original run filled: the moved design is a different run key, so the
// run must miss and stay byte-identical to an uncached run of the moved
// design.
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

	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runCacheFlow(t, mk(), func(o *Options) { o.Cache = c })

	prev := c.Stats().Total()
	eco := runCacheFlow(t, move(mk()), func(o *Options) { o.Cache = c })
	if now := c.Stats().Total(); now.Hits != prev.Hits || now.Misses-prev.Misses != 1 {
		t.Errorf("ECO run hit %d and missed %d times, want one miss", now.Hits-prev.Hits, now.Misses-prev.Misses)
	}
	plain := runCacheFlow(t, move(mk()), nil)
	if eco.fp != plain.fp || eco.def != plain.def {
		t.Error("ECO run differs from uncached run of the moved design")
	}
}

// TestCacheUndecodableEntry stores a truncated payload under a design's run
// key. It passes the store's checks but not the run-entry codec, so the run
// must drop it, recompute the uncached run's DEF byte for byte and leave a
// decodable entry in its place (a memory-tier Put never replaces an
// existing key, so that entry proves the bad one was deleted). The lookup
// found nothing usable, so both the run's cache section and the store's
// counters must count it as a miss, not a hit.
func TestCacheUndecodableEntry(t *testing.T) {
	d := cacheTestDesign(23)
	base := runCacheFlow(t, d, nil)
	opts := DefaultOptions()
	opts.SAIters = 40
	key := runKey(opts, d.ClockRoot, d.Net().Sinks)

	filled, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runCacheFlow(t, d, func(o *Options) { o.Cache = filled })
	good, ok, _ := filled.Get(stageRun, key)
	if !ok {
		t.Fatal("cold run stored no entry under its run key")
	}
	c, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(stageRun, key, good[:len(good)/2])

	rec := obs.New(obs.NewManualClock(1))
	got := runCacheFlow(t, d, func(o *Options) { o.Cache = c; o.Obs = rec })
	if got.def != base.def || got.fp != base.fp {
		t.Error("run over an undecodable entry differs from the uncached run")
	}
	checkSection(t, "run over an undecodable entry", rec, 0, 1, 1)
	if s := c.Stats().Stages[stageRun]; s.Hits != 0 || s.Misses != 1 {
		t.Errorf("store counts hits %d and misses %d after the run, want 0 and 1", s.Hits, s.Misses)
	}
	data, ok, _ := c.Get(stageRun, key)
	if !ok {
		t.Fatal("no entry left under the run key")
	}
	if _, _, err := decodeRunEntry(data); err != nil {
		t.Errorf("entry left under the run key does not decode: %v", err)
	}
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
