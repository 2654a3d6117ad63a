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
//	benchtab -table smoke -workers 8  # print the smoke flow's DEF digest
//	benchtab -table 2 -cpuprofile cpu.pprof -memprofile mem.pprof
//	benchtab -table 6 -stages         # per-stage wall clock
//	benchtab -table cachesmoke        # smoke flow twice vs one store
//
// -workers parallelizes the independent units of each table (per-cluster
// net builds inside a flow, per-cell net streams in Tables 2/3, the seven
// builders of Table 1) without changing a single output byte; `-table
// smoke` prints the digest line that shows it, and TestSmokeDigest pins
// that digest at one and eight workers.
//
// `-table cachesmoke` is the oracle for the run cache: it runs the smoke
// flow twice against one on-disk store in a temporary directory and exits
// non-zero unless the second run is one hit with no miss and its DEF is
// byte-identical to the first. TestCacheSmokeDigest runs it and pins its
// digest.
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
	flag.Parse()

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
		if *stages {
			results = bench.RunFlowsObs(specs, *seed, *workers)
		} else {
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
		if err := smoke(*seed, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: smoke: %v\n", err)
			os.Exit(1)
		}
	}
	// cachesmoke is the run cache's own oracle (also outside "all"): the
	// same flow runs twice against one on-disk store, and the process fails
	// unless the second run is one hit, no miss, with a byte-identical DEF.
	if *table == "cachesmoke" {
		if _, err := cacheSmoke(*seed, *workers); err != nil {
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

// smokeFlow runs the paper's flow on the oracles' design, a reduced
// s38584-class design, and returns the result with its exported DEF. smoke
// and cacheSmoke share it, so their digests are comparable.
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
// headline metrics.
func smoke(seed int64, workers int) error {
	res, def, err := smokeFlow(seed, workers, nil)
	if err != nil {
		return err
	}
	fmt.Printf("smoke def_sha256=%x bytes=%d levels=%d buffers=%d skew_ps=%.3f\n",
		sha256.Sum256([]byte(def)), len(def), res.Levels, res.Report.Buffers, res.Report.Skew)
	return nil
}

// cacheSmoke runs the smoke flow twice against one on-disk store in a fresh
// temporary directory, removed afterwards, and asserts the replay contract:
// the second run must be one hit with no miss, and its DEF byte-identical
// to the first. It returns the DEF's SHA-256, which TestCacheSmokeDigest
// compares with the uncached smoke digest.
func cacheSmoke(seed int64, workers int) ([32]byte, error) {
	dir, err := os.MkdirTemp("", "benchtab-cache-")
	if err != nil {
		return [32]byte{}, err
	}
	defer os.RemoveAll(dir)
	store, err := cache.New(cache.Config{Dir: dir})
	if err != nil {
		return [32]byte{}, err
	}
	var digests [2][32]byte
	for pass := 0; pass < 2; pass++ {
		prev := store.Stats().Total()
		_, def, err := smokeFlow(seed, workers, store)
		if err != nil {
			return [32]byte{}, err
		}
		digests[pass] = sha256.Sum256([]byte(def))
		t := store.Stats().Total()
		hits, misses := t.Hits-prev.Hits, t.Misses-prev.Misses
		fmt.Printf("cachesmoke pass=%d def_sha256=%x hits=%d misses=%d\n",
			pass+1, digests[pass], hits, misses)
		if pass == 1 {
			if digests[1] != digests[0] {
				return [32]byte{}, fmt.Errorf("replayed DEF differs from cold run")
			}
			if hits != 1 || misses != 0 {
				return [32]byte{}, fmt.Errorf("second pass hit %d and missed %d times, want one hit and no miss", hits, misses)
			}
		}
	}
	return digests[0], nil
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
