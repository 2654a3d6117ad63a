// Command benchtab regenerates the paper's evaluation tables.
//
// Usage:
//
//	benchtab -table 1                 # Table 1 (topology metrics)
//	benchtab -table 2 -nets 10000     # Table 2 at full paper scale
//	benchtab -table 3                 # Table 3 (BST-DME vs CBS)
//	benchtab -table 6                 # Table 6 (six open designs, 3 flows)
//	benchtab -table 7                 # Table 7 (four ysyx designs, 3 flows)
//	benchtab -table 7 -scale 0.25     # ysyx designs at quarter size (fast)
//	benchtab -table all
//	benchtab -table 6 -workers 8      # spread independent work over 8 cores
//	benchtab -table smoke -workers 8  # print the flow's DEF digest (CI oracle)
//	benchtab -table 2 -cpuprofile cpu.pprof -memprofile mem.pprof
//	benchtab -table 6 -stages -cache  # per-stage wall clock + cache hit rates
//	benchtab -table cachesmoke        # flow twice vs one store (CI oracle)
//
// -workers parallelizes the independent units of each table (per-cluster
// net builds inside a flow, per-cell net streams in Tables 2/3, the seven
// builders of Table 1) without changing a single output byte; `-table
// smoke` exists so CI can assert exactly that, by diffing the digest line
// across worker counts.
//
// -cache attaches a content-addressed stage cache to the flow tables (6/7)
// so repeated invocations replay instead of recompute; -cachedir adds the
// on-disk tier so the warmth survives across processes. With -stages the
// per-stage table gains hit-rate columns. `-table cachesmoke` is the CI
// oracle for the cache itself: it runs the smoke flow twice against one
// store and exits non-zero unless the second run's DEF is byte-identical
// and its cluster-stage hit rate is at least 90%.
//
// Performance is not recorded here: cmd/slltbench is the repository's
// benchmark (see BENCHMARK.json).
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"sllt/internal/bench"
	"sllt/internal/cache"
	"sllt/internal/cts"
	"sllt/internal/designgen"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: 1|2|3|6|7|smoke|cachesmoke|all")
	nets := flag.Int("nets", 400, "random nets per cell for tables 2/3 (paper: 10000)")
	seed := flag.Int64("seed", 1, "seed")
	scale := flag.Float64("scale", 1.0, "design size scale factor for tables 6/7")
	stages := flag.Bool("stages", false, "append a per-stage wall-clock table to tables 6/7 (runs with observability on; QoR columns unchanged)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for independent work (<=1 serial; capped at GOMAXPROCS)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	useCache := flag.Bool("cache", false, "attach a content-addressed stage cache to the flow tables (replays identical stages; output bytes unchanged)")
	cacheDir := flag.String("cachedir", "", "on-disk tier directory for -cache (persists warmth across invocations; implies -cache)")
	flag.Parse()

	// cachesmoke always needs a store; -cachedir gives it the disk tier.
	var store *cache.Cache
	if *useCache || *cacheDir != "" || *table == "cachesmoke" {
		var err error
		store, err = cache.New(cache.Config{Dir: *cacheDir})
		if err != nil {
			fatal(fmt.Errorf("cache: %w", err))
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}

	run := func(name string, fn func() error) {
		if *table != "all" && *table != name {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: table %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("1", func() error {
		rows, err := bench.RunTable1(bench.Table1Net(), *workers)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable1(rows))
		return nil
	})
	run("2", func() error {
		cfg := bench.DefaultT23Config()
		cfg.Nets = *nets
		cfg.Seed = *seed
		cfg.Workers = *workers
		cells, err := bench.RunTable2(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable2(cells, cfg))
		return nil
	})
	run("3", func() error {
		cfg := bench.DefaultT23Config()
		cfg.Nets = *nets
		cfg.Seed = *seed
		cfg.Workers = *workers
		cells, err := bench.RunTable3(cfg)
		if err != nil {
			return err
		}
		fmt.Println(bench.FormatTable3(cells, cfg))
		return nil
	})
	flowTable := func(title string, specs []designgen.Spec) error {
		var results []bench.FlowResult
		switch {
		case store != nil:
			results = bench.RunFlowsCached(specs, *seed, *workers, *stages, store)
		case *stages:
			results = bench.RunFlowsObs(specs, *seed, *workers)
		default:
			results = bench.RunFlows(specs, *seed, *workers)
		}
		fmt.Println(bench.FormatFlowTable(title, results))
		if *stages {
			fmt.Println(bench.FormatStageTable("Per-stage wall clock", results))
		}
		return nil
	}
	run("6", func() error {
		return flowTable("Table 6: clock tree solutions on open designs", scaleAll(bench.Table6Specs(), *scale))
	})
	run("7", func() error {
		return flowTable("Table 7: clock tree solutions on ysyx designs", scaleAll(bench.Table7Specs(), *scale))
	})
	// smoke is not part of "all": it is the parallel-determinism oracle. It
	// synthesizes one Table-4-class design with the requested worker count
	// and prints a digest of the exported DEF — nothing runtime-dependent —
	// so `benchtab -table smoke -workers 1` and `-workers 8` must print the
	// same line, byte for byte.
	if *table == "smoke" {
		if err := smoke(*seed, *workers, store); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: smoke: %v\n", err)
			os.Exit(1)
		}
	}
	// cachesmoke is the cache's own CI oracle (also outside "all"): the same
	// flow runs twice against one store, and the process fails unless the
	// replayed run is byte-identical with a >=90% cluster-stage hit rate.
	if *table == "cachesmoke" {
		if err := cacheSmoke(*seed, *workers, store); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: cachesmoke: %v\n", err)
			os.Exit(1)
		}
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(fmt.Errorf("memprofile: %w", err))
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(fmt.Errorf("memprofile: %w", err))
		}
	}
}

// smokeFlow runs the paper's flow on the CI oracles' design, a reduced
// s38584-class design, and returns the result with its exported DEF. smoke
// and cacheSmoke share it, so CI can diff their digests.
func smokeFlow(seed int64, workers int, store *cache.Cache) (*cts.Result, string, error) {
	// The oracles must exercise real goroutine interleaving even on small CI
	// boxes, where GOMAXPROCS would otherwise clamp the fan-out.
	if workers > runtime.GOMAXPROCS(0) {
		runtime.GOMAXPROCS(workers)
	}
	d := designgen.Generate(designgen.Spec{Name: "smoke", Insts: 1500, FFs: 300, Util: 0.60}, seed)
	opts := cts.DefaultOptions()
	opts.SAIters = 200
	opts.Workers = workers
	opts.Cache = store
	res, err := cts.Run(d, opts)
	if err != nil {
		return nil, "", err
	}
	return res, cts.ExportDEF(d, res).WriteDEF(), nil
}

// smoke prints the SHA-256 of the smoke flow's post-CTS DEF plus the
// headline metrics. An attached store must not change the digest line — the
// parallel-determinism oracle doubles as the cache-transparency one when CI
// passes -cache.
func smoke(seed int64, workers int, store *cache.Cache) error {
	res, def, err := smokeFlow(seed, workers, store)
	if err != nil {
		return err
	}
	fmt.Printf("smoke def_sha256=%x bytes=%d levels=%d buffers=%d skew_ps=%.3f\n",
		sha256.Sum256([]byte(def)), len(def), res.Levels, res.Report.Buffers, res.Report.Skew)
	return nil
}

// cacheSmoke runs the smoke flow twice against one store and asserts the
// replay contract CI depends on: the second run's DEF must be byte-identical
// to the first and its cluster-stage hit rate at least 90%. A store with a
// disk tier (-cachedir) also exercises entry encode/decode. CI additionally
// diffs the digest against the uncached smoke line — three-way transparency.
func cacheSmoke(seed int64, workers int, store *cache.Cache) error {
	var digests [2][32]byte
	for pass := 0; pass < 2; pass++ {
		prev := store.Stats()
		_, def, err := smokeFlow(seed, workers, store)
		if err != nil {
			return err
		}
		digests[pass] = sha256.Sum256([]byte(def))
		cs := store.Stats().Sub(prev).Stages["cluster_build"]
		fmt.Printf("cachesmoke pass=%d def_sha256=%x cluster_hits=%d cluster_misses=%d hit_rate=%.3f\n",
			pass+1, digests[pass], cs.Hits, cs.Misses, cs.HitRate())
		if pass == 1 {
			if digests[1] != digests[0] {
				return fmt.Errorf("replayed DEF differs from cold run")
			}
			if cs.HitRate() < 0.90 {
				return fmt.Errorf("cluster-stage hit rate %.3f below the 0.90 replay floor", cs.HitRate())
			}
		}
	}
	return nil
}

func scaleAll(specs []designgen.Spec, f float64) []designgen.Spec {
	out := make([]designgen.Spec, len(specs))
	for i, s := range specs {
		out[i] = bench.ScaleSpec(s, f)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}
