// Command slltcts runs the full hierarchical clock tree synthesis flow on a
// LEF/DEF design and writes the post-CTS DEF plus a timing report.
//
// Usage:
//
//	slltcts -lef design.lef -def design.def [-net clk] [-engine ours|commercial|openroad]
//	        [-out cts.def] [-skew ps] [-fanout n] [-cap fF] [-seed n] [-workers N]
//	        [-report run.json] [-trace run.trace] [-cachedir DIR]
//
// The engine names select the paper's flow ("ours", CBS-based) or one of
// the two baseline proxies used in Tables 6/7 (baseline.Engines). -skew,
// -fanout, -cap and -seed override the engine's value when non-zero and
// keep it when zero, the rule slltd's job options follow
// (server.JobOptions.Resolve): -skew and -fanout default to 0, so
// `-engine commercial` runs at the commercial proxy's 20 ps skew bound and
// `-engine openroad` at the OpenROAD proxy's fanout of 20.
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
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"sllt/internal/cache"
	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/obs"
	"sllt/internal/server"
)

// errUsage reports a command line run could not use; the flag set has
// already printed why.
var errUsage = errors.New("usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "slltcts:", err)
		os.Exit(1)
	}
}

// run executes one slltcts command line, writing its summary to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("slltcts", flag.ContinueOnError)
	lefPath := fs.String("lef", "", "input LEF file (required)")
	defPath := fs.String("def", "", "input DEF file (required)")
	netName := fs.String("net", "", "clock net name (default: first USE CLOCK net)")
	engine := fs.String("engine", "ours", "flow: ours | commercial | openroad")
	outPath := fs.String("out", "", "output post-CTS DEF file")
	skew := fs.Float64("skew", 0, "skew bound, ps (0: the engine's)")
	fanout := fs.Int("fanout", 0, "max fanout per clock net (0: the engine's)")
	maxCap := fs.Float64("cap", 0, "max stage capacitance, fF (0: the engine's)")
	seed := fs.Int64("seed", 1, "random seed (0: the engine's)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for per-cluster builds (<=1 serial; output is identical for any value)")
	reportPath := fs.String("report", "", "write the run report (canonical JSON, schema sllt.obs.report/v1.1) to this file")
	tracePath := fs.String("trace", "", "write a human-readable stage trace to this file")
	cacheDir := fs.String("cachedir", "", "run cache directory: replay a run identical to an earlier one (output bytes unchanged)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *lefPath == "" || *defPath == "" {
		fs.Usage()
		return errUsage
	}

	opts, err := server.JobOptions{
		Engine: *engine, SkewPs: *skew, Fanout: *fanout, MaxCapFF: *maxCap, Seed: *seed,
	}.Resolve()
	if err != nil {
		return err
	}
	opts.Workers = *workers
	if *reportPath != "" || *tracePath != "" {
		opts.Obs = obs.New(nil)
	}
	var store *cache.Cache
	if *cacheDir != "" {
		if store, err = cache.New(cache.Config{Dir: *cacheDir}); err != nil {
			return err
		}
		opts.Cache = store
	}

	ingest := opts.Obs.Begin("ingest")
	d, err := loadDesign(*lefPath, *defPath, *netName)
	ingest.End()
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "slltcts: %s — %d instances, %d clock sinks, die %.0fx%.0f um\n",
		d.Name, len(d.Insts), d.NumFFs(), d.Die.W(), d.Die.H())
	start := time.Now()
	res, err := cts.Run(d, opts)
	if err != nil {
		return err
	}
	rt := time.Since(start)

	r := res.Report
	fmt.Fprintf(stdout, "engine        : %s\n", *engine)
	fmt.Fprintf(stdout, "levels        : %d (clusters per level: %v)\n", res.Levels, res.Clusters)
	fmt.Fprintf(stdout, "max latency   : %.1f ps\n", r.MaxLatency)
	fmt.Fprintf(stdout, "skew          : %.1f ps (bound %.0f)\n", r.Skew, opts.Cons.SkewBound)
	fmt.Fprintf(stdout, "buffers       : %d (area %.1f um2)\n", r.Buffers, r.BufArea)
	fmt.Fprintf(stdout, "clock cap     : %.1f fF\n", r.ClockCap)
	fmt.Fprintf(stdout, "clock WL      : %.1f um\n", r.WL)
	fmt.Fprintf(stdout, "max stage cap : %.1f fF (limit %.0f)\n", r.MaxStgCap, opts.Cons.MaxCap)
	fmt.Fprintf(stdout, "max sink slew : %.1f ps\n", r.MaxSlew)
	fmt.Fprintf(stdout, "runtime       : %.2f s\n", rt.Seconds())
	if store != nil {
		total := store.Stats().Total()
		fmt.Fprintf(stdout, "cache         : %d hits / %d misses\n", total.Hits, total.Misses)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		out, err := cts.ExportDEFWriter(f, d, res)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d components, %d nets)\n", *outPath, len(out.Components), len(out.Nets))
	}

	if !opts.Obs.Enabled() {
		return nil
	}
	rep := opts.Obs.Snapshot()
	if *reportPath != "" {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (report, %d bytes)\n", *reportPath, len(data))
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return err
		}
		if err := rep.WriteTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (trace)\n", *tracePath)
	}
	return nil
}

// loadDesign ingests the two input files through design.Load, which
// streams them through fixed-buffer readers: neither file is ever held in
// memory whole, so ingest cost is the parsed structures alone.
func loadDesign(lefPath, defPath, clockNet string) (*design.Design, error) {
	lef, err := os.Open(lefPath)
	if err != nil {
		return nil, err
	}
	defer lef.Close()
	def, err := os.Open(defPath)
	if err != nil {
		return nil, err
	}
	defer def.Close()
	return design.Load(lef, def, clockNet)
}
