package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"sllt/internal/cache"
	"sllt/internal/cts"
	"sllt/internal/designgen"
	"sllt/internal/timing"
)

// workers is the flow's goroutine budget: the benchmark is sized for a
// two-core machine.
const workers = 2

// sizes are the workload dimensions. The benchmark runs fullSizes; the
// tests run a toy copy through the same code.
type sizes struct {
	paper6    []designgen.Spec
	large     designgen.Spec
	eco       designgen.Spec
	jobMin    int     // sinks of the smallest daemon job
	jobMax    int     // sinks of the largest daemon job
	jobRate   float64 // open-loop daemon arrivals per second
	setupReps int     // set-up-only repetitions before the measured runs
}

func fullSizes() sizes {
	eth, err := designgen.FindSpec("ethernet")
	if err != nil {
		panic(err) // Table 4 is a constant of designgen
	}
	return sizes{
		paper6:    designgen.Table4()[:6],
		large:     designgen.Spec{Name: "large100k", Insts: 200_000, FFs: 100_000, Util: 0.62},
		eco:       eth,
		jobMin:    300,
		jobMax:    1000,
		jobRate:   9,
		setupReps: 10,
	}
}

// config is one workload run's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	sizes   sizes
}

// env is the state of one workload run: its scratch directory and the
// result it fills.
type env struct {
	config
	dir    string
	res    *result
	peakMB float64 // resident-set high-water mark before the last checks
}

type workload struct {
	name string
	run  func(*env) error
}

var workloads = []workload{
	{"paper6", func(e *env) error { return e.flows(e.sizes.paper6) }},
	{"large100k", func(e *env) error { return e.flows([]designgen.Spec{e.sizes.large}) }},
	{"eco10k", (*env).eco},
	{"daemon", (*env).daemon},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runWorkload runs one workload in a scratch directory under os.TempDir.
func runWorkload(w workload, c config) *result {
	res := &result{Workload: w.name, Trace: c.trace, Seed: c.seed, Seconds: c.seconds}
	start := time.Now()
	dir, err := os.MkdirTemp("", "slltbench-"+w.name+"-")
	if err != nil {
		res.fail(err)
		return res
	}
	defer os.RemoveAll(dir)
	e := &env{config: c, dir: dir, res: res}
	if err := w.run(e); err != nil {
		res.fail(fmt.Errorf("%s: %w", w.name, err))
	}
	if !c.trace {
		if e.peakMB == 0 {
			e.notePeak()
		}
		res.add("peak_rss_mb", "MB", e.peakMB)
	}
	res.WallS = time.Since(start).Seconds()
	return res
}

// flowOptions is the paper's flow ("Ours" in Tables 6/7) on the
// benchmark's worker budget.
func flowOptions() cts.Options {
	o := cts.DefaultOptions()
	o.Workers = workers
	return o
}

func (e *env) out() string { return filepath.Join(e.dir, "out.def") }

// flow runs the pipeline and its checks once, counting the attempt. The run
// starts from a collected heap, as a fresh cmd/slltcts process does, so one
// run's garbage never taxes the next. rt, if not nil, sums the Go runtime's
// work over the pipeline alone. The resident-set mark is read before the
// checks, so their own parsing never sets peak_rss_mb.
func (e *env) flow(in input, opts cts.Options, rt *goStats) (*flowRun, checked, error) {
	e.res.Attempted++
	runtime.GC()
	var r *flowRun
	if err := rt.measure(func() (err error) {
		r, err = runPipeline(in, opts, e.out())
		return err
	}); err != nil {
		return nil, checked{}, err
	}
	e.notePeak()
	c, err := checkRun(r, opts)
	return r, c, err
}

// notePeak records the process's resident-set high-water mark in MB (Linux
// reports ru_maxrss in KiB).
func (e *env) notePeak() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		e.peakMB = float64(ru.Maxrss) * 1024 / 1e6
	}
}

// setupSamples times set-up alone, reps times, each input from a collected
// heap; each sample sums over the inputs.
func (e *env) setupSamples(ins []input, reps int) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		var sum float64
		for _, in := range ins {
			runtime.GC()
			s, err := setupOnly(in)
			if err != nil {
				return nil, err
			}
			sum += s
		}
		out = append(out, sum)
	}
	return out, nil
}

// due reports whether another measured repetition starts: the first always
// does, a later one if, at the pace so far, it ends within the run's
// seconds. A repetition about as long as the run (a paper6 pass) then runs
// once, not once or twice as the host's speed varies.
func (e *env) due(rep int, start time.Time) bool {
	elapsed := time.Since(start)
	return rep == 0 || elapsed+elapsed/time.Duration(rep) <= time.Duration(e.seconds)*time.Second
}

// goStats sums the Go runtime's allocation and GC work over the calls it
// measures. A nil *goStats measures nothing.
type goStats struct{ allocMB, gcCycles, gcCPU float64 }

func (g *goStats) measure(fn func() error) error {
	if g == nil {
		return fn()
	}
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(gc)
	gc0 := gc[0].Value.Float64()
	err := fn()
	runtime.ReadMemStats(&m1)
	metrics.Read(gc)
	g.allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
	g.gcCycles += float64(m1.NumGC - m0.NumGC)
	g.gcCPU += gc[0].Value.Float64() - gc0
	return err
}

func (g *goStats) emit(r *result) {
	r.add("go.alloc_mb", "MB", g.allocMB)
	r.add("go.gc_cycles", "count", g.gcCycles)
	r.add("go.gc_cpu_s", "s", g.gcCPU)
}

// flows is the paper6 and large100k workload: the uncached flow over a
// fixed set of designs, one pass after another.
func (e *env) flows(specs []designgen.Spec) error {
	ins, err := writeInputs(e.dir, specs, e.seed)
	if err != nil {
		return err
	}
	opts := flowOptions()
	if e.trace {
		var rt goStats
		l, err := e.tracedPass(ins, opts, &rt)
		if err != nil {
			return err
		}
		rt.emit(e.res)
		l.emit(e.res)
		idle(e.res, cacheMetrics...)
		idle(e.res, serverMetrics...)
		return nil
	}

	setups, err := e.setupSamples(ins, e.sizes.setupReps)
	if err != nil {
		return err
	}
	var turn []float64
	var sinks float64
	shas := make([]string, len(ins))
	var reports []*timing.Report
	start := time.Now()
	for pass := 0; e.due(pass, start); pass++ {
		var total float64
		for i, in := range ins {
			r, c, err := e.flow(in, opts, nil)
			if err != nil {
				return err
			}
			if pass == 0 {
				shas[i] = c.sha
				reports = append(reports, r.res.Report)
			} else if c.sha != shas[i] {
				return fmt.Errorf("%s: pass %d exported a different DEF than pass 0", in.name, pass)
			}
			total += r.total
			sinks += float64(in.sinks)
		}
		turn = append(turn, total)
	}
	e.res.addSamples("setup_s", "s", setups)
	e.res.addSamples("turnaround_s", "s", turn)
	e.res.add("sinks_per_s", "sinks/s", sinks/sum(turn))
	addQoR(e.res, reports, opts.Cons)
	return nil
}

// ecoRun is what an eco10k cycle keeps of one run.
type ecoRun struct {
	total  float64
	sha    string
	report *timing.Report
	stats  cache.Stats
}

// ecoCycle is one cold, warm and ECO run against a fresh on-disk cache.
type ecoCycle struct{ cold, warm, eco ecoRun }

// runEcoCycle runs the unchanged design twice and the moved design once
// against one fresh cache directory, each run with a new cache.New instance
// on it, so warmth can only come from the disk tier — the way two slltcts
// invocations sharing -cachedir see it. rt, if not nil, sums the Go
// runtime's work over the three pipelines.
func (e *env) runEcoCycle(base, moved input, opts cts.Options, rt *goStats) (ecoCycle, error) {
	var cy ecoCycle
	dir, err := os.MkdirTemp(e.dir, "cache-")
	if err != nil {
		return cy, err
	}
	defer os.RemoveAll(dir)
	for _, step := range []struct {
		in  input
		dst *ecoRun
	}{{base, &cy.cold}, {base, &cy.warm}, {moved, &cy.eco}} {
		store, err := cache.New(cache.Config{Dir: dir})
		if err != nil {
			return cy, err
		}
		o := opts
		o.Cache = store
		r, c, err := e.flow(step.in, o, rt)
		if err != nil {
			return cy, err
		}
		*step.dst = ecoRun{total: r.total, sha: c.sha, report: r.res.Report, stats: store.Stats()}
	}
	if cy.warm.sha != cy.cold.sha {
		return cy, fmt.Errorf("warm run exported a different DEF than the cold run")
	}
	return cy, nil
}

// eco is the eco10k workload: cold, warm and post-ECO runs of ethernet
// against an on-disk stage cache, cycle after cycle.
func (e *env) eco() error {
	if err := writeLEF(e.dir); err != nil {
		return err
	}
	base, err := writeInput(e.dir, "base.def", designgen.Generate(e.sizes.eco, e.seed))
	if err != nil {
		return err
	}
	d := designgen.Generate(e.sizes.eco, e.seed)
	moveSinks(d)
	moved, err := writeInput(e.dir, "moved.def", d)
	if err != nil {
		return err
	}
	opts := flowOptions()
	// The ECO run must export exactly what one uncached run of the moved
	// design does.
	_, ecoRef, err := e.flow(moved, opts, nil)
	if err != nil {
		return err
	}
	checkCycle := func(cy ecoCycle, coldSHA string) error {
		if coldSHA != "" && cy.cold.sha != coldSHA {
			return fmt.Errorf("cold runs exported different DEFs")
		}
		if cy.eco.sha != ecoRef.sha {
			return fmt.Errorf("ECO run exported a different DEF than an uncached run of the moved design")
		}
		return nil
	}

	if e.trace {
		var rt goStats
		cy, err := e.runEcoCycle(base, moved, opts, &rt)
		if err != nil {
			return err
		}
		if err := checkCycle(cy, ""); err != nil {
			return err
		}
		l, err := e.tracedPass([]input{base}, opts, nil)
		if err != nil {
			return err
		}
		if l.shas[0] != cy.cold.sha {
			return fmt.Errorf("cached cold run exported a different DEF than an uncached run")
		}
		rt.emit(e.res)
		l.emit(e.res)
		warm, eco := cy.warm.stats.Stages, cy.eco.stats.Stages
		cold := cy.cold.stats.Total()
		e.res.add("cache.warm.cluster_hit_ratio", "ratio", warm[clusterStage].HitRate())
		e.res.add("cache.eco.cluster_hit_ratio", "ratio", eco[clusterStage].HitRate())
		e.res.add("cache.partition_hit_ratio", "ratio", eco[partitionStage].HitRate())
		e.res.add("cache.warm_speedup", "ratio", ratio(cy.cold.total, cy.warm.total))
		e.res.add("cache.eco_speedup", "ratio", ratio(cy.cold.total, cy.eco.total))
		e.res.add("cache.stored_mb", "MB", float64(cold.BytesWritten)/1e6)
		e.res.add("cache.disk_errors", "count", float64(cold.DiskErrors+cy.warm.stats.Total().DiskErrors+cy.eco.stats.Total().DiskErrors))
		idle(e.res, serverMetrics...)
		return nil
	}

	setups, err := e.setupSamples([]input{base}, e.sizes.setupReps)
	if err != nil {
		return err
	}
	var cold, warm, eco []float64
	var busy float64
	coldSHA := ""
	var report *timing.Report
	start := time.Now()
	for cycle := 0; e.due(cycle, start); cycle++ {
		cy, err := e.runEcoCycle(base, moved, opts, nil)
		if err != nil {
			return err
		}
		if err := checkCycle(cy, coldSHA); err != nil {
			return err
		}
		coldSHA, report = cy.cold.sha, cy.cold.report
		cold = append(cold, cy.cold.total)
		warm = append(warm, cy.warm.total)
		eco = append(eco, cy.eco.total)
		busy += cy.cold.total + cy.warm.total + cy.eco.total
	}
	e.res.addSamples("setup_s", "s", setups)
	e.res.addSamples("turnaround_s", "s", cold)
	e.res.add("sinks_per_s", "sinks/s", float64(3*len(cold)*base.sinks)/busy)
	e.res.addSamples("warm_turnaround_s", "s", warm)
	e.res.addSamples("eco_turnaround_s", "s", eco)
	addQoR(e.res, []*timing.Report{report}, opts.Cons)
	return nil
}

// Cache stage names as internal/cts records them.
const (
	partitionStage = "partition"
	clusterStage   = "cluster_build"
)

var (
	cacheMetrics = []string{
		"cache.warm.cluster_hit_ratio", "cache.eco.cluster_hit_ratio", "cache.partition_hit_ratio",
		"cache.warm_speedup", "cache.eco_speedup", "cache.stored_mb", "cache.disk_errors",
	}
	serverMetrics = []string{
		"server.ingest_share", "server.queue_wait_share", "server.cache_hit_ratio",
	}
)

// idle reports 0 for per-layer metrics of a layer the workload never enters.
func idle(r *result, names ...string) {
	for _, name := range names {
		for _, d := range perLayer {
			if d.name == name {
				r.add(name, d.unit, 0)
			}
		}
	}
}

// addQoR reports the geometric mean of each Table 6/7 quantity over the
// reports, and the share of designs that break the skew or stage-cap bound.
func addQoR(r *result, reps []*timing.Report, cons cts.Constraints) {
	var skew, lat, bufs, area, capf, wl []float64
	fails := 0
	for _, rep := range reps {
		skew = append(skew, rep.Skew)
		lat = append(lat, rep.MaxLatency)
		bufs = append(bufs, float64(rep.Buffers))
		area = append(area, rep.BufArea)
		capf = append(capf, rep.ClockCap)
		wl = append(wl, rep.WL/1000)
		if rep.Skew > cons.SkewBound || rep.MaxStgCap > cons.MaxCap {
			fails++
		}
	}
	r.add("qor.skew_ps", "ps", geomean(skew))
	r.add("qor.max_latency_ps", "ps", geomean(lat))
	r.add("qor.buffers", "count", geomean(bufs))
	r.add("qor.buf_area_um2", "um2", geomean(area))
	r.add("qor.clock_cap_ff", "fF", geomean(capf))
	r.add("qor.wl_mm", "mm", geomean(wl))
	r.add("qor.constraint_fail_ratio", "ratio", ratio(float64(fails), float64(len(reps))))
}
