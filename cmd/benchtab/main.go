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
//	benchtab -table 2 -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -workers parallelizes the independent units of each table (per-cluster
// net builds inside a flow, per-cell net streams in Tables 2/3, the seven
// builders of Table 1) without changing a single output byte. The digest
// oracles that show it live in this command's tests: TestSmokeDigest pins
// the smoke flow's DEF at one and eight workers, TestCacheSmokeDigest the
// same DEF replayed from an on-disk run cache, and TestFlowDigests every
// Table-6 row.
//
// Performance is not recorded here: cmd/slltbench is the repository's
// benchmark (see BENCHMARK.json), and `slltcts -report`/`-trace` show one
// run's per-stage span tree.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"sllt/internal/bench"
	"sllt/internal/designgen"
)

func main() {
	table := flag.String("table", "all", "table to regenerate: 1|2|3|6|7|all")
	nets := flag.Int("nets", 400, "random nets per cell for tables 2/3 (paper: 10000)")
	seed := flag.Int64("seed", 1, "seed")
	scale := flag.Float64("scale", 1.0, "design size scale factor for tables 6/7")
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

	for _, name := range []string{"1", "2", "3"} {
		run(name, func() error {
			text, err := paperTable(name, *nets, *seed, *workers)
			if err != nil {
				return err
			}
			fmt.Println(text)
			return nil
		})
	}
	flowTable := func(title string, specs []designgen.Spec) error {
		fmt.Println(bench.FormatFlowTable(title, bench.RunFlows(specs, *seed, *workers)))
		return nil
	}
	run("6", func() error {
		return flowTable("Table 6: clock tree solutions on open designs", scaleAll(bench.Table6Specs(), *scale))
	})
	run("7", func() error {
		return flowTable("Table 7: clock tree solutions on ysyx designs", scaleAll(bench.Table7Specs(), *scale))
	})
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

// paperTable runs Table 1, 2 or 3 and returns its text as benchtab prints
// it; nets sets the random nets per cell of Tables 2 and 3.
func paperTable(table string, nets int, seed int64, workers int) (string, error) {
	if table == "1" {
		rows, err := bench.RunTable1(bench.Table1Net(), workers)
		if err != nil {
			return "", err
		}
		return bench.FormatTable1(rows), nil
	}
	cfg := bench.DefaultT23Config()
	cfg.Nets = nets
	cfg.Seed = seed
	cfg.Workers = workers
	if table == "2" {
		cells, err := bench.RunTable2(cfg)
		if err != nil {
			return "", err
		}
		return bench.FormatTable2(cells, cfg), nil
	}
	cells, err := bench.RunTable3(cfg)
	if err != nil {
		return "", err
	}
	return bench.FormatTable3(cells, cfg), nil
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
