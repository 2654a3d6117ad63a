// Command slltcts runs the full hierarchical clock tree synthesis flow on a
// LEF/DEF design and writes the post-CTS DEF plus a timing report.
//
// Usage:
//
//	slltcts -lef design.lef -def design.def [-net clk] [-engine ours|commercial|openroad]
//	        [-out cts.def] [-skew 80] [-fanout 32] [-cap 150] [-workers N]
//	        [-report run.json] [-trace run.trace] [-cachedir DIR]
//
// -workers spreads the independent per-cluster net builds of each level
// over N goroutines. The output DEF is byte-identical for every value —
// parallelism here changes wall clock, never the tree.
//
// -report writes the machine-readable run report (schema
// "sllt.obs.report/v1.1": stage span tree, kernel counters, per-level QoR,
// and — when caching is on — the cache traffic section; see internal/obs)
// and -trace a human-readable span breakdown. Either flag enables
// observability; neither changes a byte of the DEF output.
//
// -cachedir DIR attaches the run cache on disk: a run whose design and
// options match an earlier one replays the stored tree instead of
// synthesizing it, and a run that completes stores its entry there. Any
// edit to the placement or the options is a new run, computed in full.
// Cached and uncached runs produce byte-identical DEF output.
//
// The engine names select the paper's flow ("ours", CBS-based) or one of
// the two baseline proxies used in Tables 6/7.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"sllt/internal/baseline"
	"sllt/internal/cache"
	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/lefdef"
	"sllt/internal/obs"
)

func main() {
	lefPath := flag.String("lef", "", "input LEF file (required)")
	defPath := flag.String("def", "", "input DEF file (required)")
	netName := flag.String("net", "", "clock net name (default: first USE CLOCK net)")
	engine := flag.String("engine", "ours", "flow: ours | commercial | openroad")
	outPath := flag.String("out", "", "output post-CTS DEF file")
	skew := flag.Float64("skew", 80, "skew bound, ps")
	fanout := flag.Int("fanout", 32, "max fanout per clock net")
	maxCap := flag.Float64("cap", 150, "max stage capacitance, fF")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for per-cluster builds (<=1 serial; output is identical for any value)")
	reportPath := flag.String("report", "", "write the run report (canonical JSON, schema sllt.obs.report/v1.1) to this file")
	tracePath := flag.String("trace", "", "write a human-readable stage trace to this file")
	cacheDir := flag.String("cachedir", "", "run cache directory: replay a run identical to an earlier one (output bytes unchanged)")
	flag.Parse()

	if *lefPath == "" || *defPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	// Inputs stream through the fixed-buffer readers: neither file is ever
	// held in memory whole, so ingest cost is the parsed structures alone.
	lef, err := parseLEFFile(*lefPath)
	fatal(err)
	df, err := parseDEFFile(*defPath)
	fatal(err)
	d, err := design.FromLEFDEF(lef, df, *netName)
	fatal(err)

	var opts cts.Options
	switch *engine {
	case "ours":
		opts = cts.DefaultOptions()
	case "commercial":
		opts = baseline.CommercialLike()
	case "openroad":
		opts = baseline.OpenROADLike()
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	opts.Cons.SkewBound = *skew
	opts.Cons.MaxFanout = *fanout
	opts.Cons.MaxCap = *maxCap
	opts.Seed = *seed
	opts.Workers = *workers
	if *reportPath != "" || *tracePath != "" {
		opts.Obs = obs.New(nil)
	}
	var store *cache.Cache
	if *cacheDir != "" {
		store, err = cache.New(cache.Config{Dir: *cacheDir})
		fatal(err)
		opts.Cache = store
	}

	fmt.Printf("slltcts: %s — %d instances, %d clock sinks, die %.0fx%.0f um\n",
		d.Name, len(d.Insts), d.NumFFs(), d.Die.W(), d.Die.H())
	start := time.Now()
	res, err := cts.Run(d, opts)
	fatal(err)
	rt := time.Since(start)

	r := res.Report
	fmt.Printf("engine        : %s\n", *engine)
	fmt.Printf("levels        : %d (clusters per level: %v)\n", res.Levels, res.Clusters)
	fmt.Printf("max latency   : %.1f ps\n", r.MaxLatency)
	fmt.Printf("skew          : %.1f ps (bound %.0f)\n", r.Skew, *skew)
	fmt.Printf("buffers       : %d (area %.1f um2)\n", r.Buffers, r.BufArea)
	fmt.Printf("clock cap     : %.1f fF\n", r.ClockCap)
	fmt.Printf("clock WL      : %.1f um\n", r.WL)
	fmt.Printf("max stage cap : %.1f fF (limit %.0f)\n", r.MaxStgCap, *maxCap)
	fmt.Printf("max sink slew : %.1f ps\n", r.MaxSlew)
	fmt.Printf("runtime       : %.2f s\n", rt.Seconds())
	if store != nil {
		total := store.Stats().Total()
		fmt.Printf("cache         : %d hits / %d misses\n", total.Hits, total.Misses)
	}

	if *outPath != "" {
		out, err := cts.ExportDEFFile(*outPath, d, res)
		fatal(err)
		fmt.Printf("wrote %s (%d components, %d nets)\n", *outPath, len(out.Components), len(out.Nets))
	}

	if opts.Obs.Enabled() {
		rep := opts.Obs.Snapshot()
		if *reportPath != "" {
			data, err := rep.JSON()
			fatal(err)
			fatal(os.WriteFile(*reportPath, data, 0o644))
			fmt.Printf("wrote %s (report, %d bytes)\n", *reportPath, len(data))
		}
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			fatal(err)
			fatal(rep.WriteTrace(f))
			fatal(f.Close())
			fmt.Printf("wrote %s (trace)\n", *tracePath)
		}
	}
}

func parseLEFFile(path string) (*lefdef.LEF, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lefdef.ParseLEFReader(f)
}

func parseDEFFile(path string) (*lefdef.DEF, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return lefdef.ParseDEFReader(f)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "slltcts:", err)
		os.Exit(1)
	}
}
