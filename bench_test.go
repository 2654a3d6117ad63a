// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablations for the design choices DESIGN.md calls out.
//
// Paper-scale parameters are impractical inside `go test -bench` (Table 2
// alone is 90 000 nets; Table 7's ysyx designs have up to 27 078 sinks), so
// the benchmarks run statistically representative reductions and report the
// table's quantities as custom benchmark metrics (wl_um, skew_ps, …). The
// full-scale tables are regenerated by cmd/benchtab; EXPERIMENTS.md records
// both against the paper's numbers.
package sllt

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sllt/internal/baseline"
	"sllt/internal/bench"
	"sllt/internal/core"
	"sllt/internal/cts"
	"sllt/internal/designgen"
	"sllt/internal/dme"
	"sllt/internal/geom"
	"sllt/internal/htree"
	"sllt/internal/partition"
	"sllt/internal/rsmt"
	"sllt/internal/salt"
	"sllt/internal/timing"
	"sllt/internal/tree"
	"sllt/internal/viz"
)

// BenchmarkTable1 rebuilds the seven-topology comparison of Table 1 and
// reports CBS's three SLLT metrics.
func BenchmarkTable1(b *testing.B) {
	net := bench.Table1Net()
	var last []bench.AlgoRow
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1(net, 1)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	for _, r := range last {
		if r.Name == "CBS" {
			b.ReportMetric(r.Metrics.Alpha, "cbs_alpha")
			b.ReportMetric(r.Metrics.Beta, "cbs_beta")
			b.ReportMetric(r.Metrics.Gamma, "cbs_gamma")
		}
	}
}

// BenchmarkTable2 reproduces the R-SALT vs CBS wirelength cells: one random
// net per iteration, reporting mean wirelengths and the reduction.
func BenchmarkTable2(b *testing.B) {
	cfg := bench.DefaultT23Config()
	for _, method := range cfg.Methods {
		for _, bound := range cfg.Bounds {
			b.Run(fmt.Sprintf("%v/skew%.0fps", method, bound), func(b *testing.B) {
				rng := rand.New(rand.NewSource(cfg.Seed))
				var sumS, sumC float64
				for i := 0; i < b.N; i++ {
					net := cfg.Net.Random(rng)
					sumS += salt.Build(net, cfg.SALTEps).Wirelength()
					t, err := core.Build(net, core.Options{
						DME:        dme.Options{Model: dme.Elmore, SkewBound: bound, Tech: cfg.Tech},
						TopoMethod: method,
						SALTEps:    cfg.SALTEps,
					})
					if err != nil {
						b.Fatal(err)
					}
					sumC += t.Wirelength()
				}
				n := float64(b.N)
				b.ReportMetric(sumS/n, "rsalt_wl_um")
				b.ReportMetric(sumC/n, "cbs_wl_um")
				b.ReportMetric((sumS-sumC)/sumS*100, "reduce_%")
			})
		}
	}
}

// BenchmarkTable3 reproduces the BST-DME vs CBS comparison: wirelength,
// load capacitance and unbuffered wire delay per skew bound.
func BenchmarkTable3(b *testing.B) {
	cfg := bench.DefaultT23Config()
	for _, bound := range cfg.Bounds {
		b.Run(fmt.Sprintf("skew%.0fps", bound), func(b *testing.B) {
			rng := rand.New(rand.NewSource(cfg.Seed))
			dopts := dme.Options{Model: dme.Elmore, SkewBound: bound, Tech: cfg.Tech}
			var bstWL, cbsWL, bstD, cbsD float64
			for i := 0; i < b.N; i++ {
				net := cfg.Net.Random(rng)
				topo := dme.GenTopo(net, dme.GreedyDist, dopts.LengthBudget(net))
				bst, err := dme.Build(net, topo, dopts)
				if err != nil {
					b.Fatal(err)
				}
				cbs, err := core.Build(net, core.Options{DME: dopts, TopoMethod: dme.GreedyDist, SALTEps: cfg.SALTEps})
				if err != nil {
					b.Fatal(err)
				}
				bstWL += bst.Wirelength()
				cbsWL += cbs.Wirelength()
				d1, err := timing.Analyze(bst, nil, cfg.Tech, 0)
				if err != nil {
					b.Fatal(err)
				}
				d2, err := timing.Analyze(cbs, nil, cfg.Tech, 0)
				if err != nil {
					b.Fatal(err)
				}
				bstD += d1.MaxLatency
				cbsD += d2.MaxLatency
			}
			n := float64(b.N)
			b.ReportMetric(bstWL/n, "bst_wl_um")
			b.ReportMetric(cbsWL/n, "cbs_wl_um")
			b.ReportMetric(bstD/n, "bst_delay_ps")
			b.ReportMetric(cbsD/n, "cbs_delay_ps")
		})
	}
}

// benchFlow runs one full-flow synthesis per iteration and reports the
// Table 6/7 metrics.
func benchFlow(b *testing.B, spec designgen.Spec, opts cts.Options) {
	b.Helper()
	d := designgen.Generate(spec, 1)
	var rep *timing.Report
	for i := 0; i < b.N; i++ {
		res, err := cts.Run(d, opts)
		if err != nil {
			b.Fatal(err)
		}
		rep = res.Report
	}
	b.ReportMetric(rep.MaxLatency, "latency_ps")
	b.ReportMetric(rep.Skew, "skew_ps")
	b.ReportMetric(float64(rep.Buffers), "buffers")
	b.ReportMetric(rep.ClockCap, "cap_fF")
	b.ReportMetric(rep.WL, "wl_um")
}

// BenchmarkTable6 runs the three flows on the open designs of Table 6,
// scaled to 20% for benchmark runtimes (cmd/benchtab runs full scale).
func BenchmarkTable6(b *testing.B) {
	for _, spec := range bench.Table6Specs()[:3] {
		scaled := bench.ScaleSpec(spec, 0.2)
		for _, e := range baseline.Engines {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, e.Label), func(b *testing.B) {
				opts := e.Options()
				opts.Workers = 1
				benchFlow(b, scaled, opts)
			})
		}
	}
}

// BenchmarkTable7 runs the three flows on the ysyx designs at 10% scale.
func BenchmarkTable7(b *testing.B) {
	for _, spec := range bench.Table7Specs()[:2] {
		scaled := bench.ScaleSpec(spec, 0.1)
		for _, e := range baseline.Engines {
			b.Run(fmt.Sprintf("%s/%s", spec.Name, e.Label), func(b *testing.B) {
				opts := e.Options()
				opts.Workers = 1
				benchFlow(b, scaled, opts)
			})
		}
	}
}

// BenchmarkParallelFlow measures the deterministic parallel layer: each
// iteration synthesizes the same design twice — Workers=1 then Workers=4 —
// and the accumulated ratio is reported as the `speedup` metric. Both runs
// produce byte-identical trees (TestRunDeterministicDEF is the oracle), so
// the ratio isolates the scheduling win. GOMAXPROCS is raised to 4 for the
// duration in case the host has fewer cores.
func BenchmarkParallelFlow(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	spec := designgen.Spec{Name: "parflow", Insts: 4000, FFs: 900, Util: 0.62}
	d := designgen.Generate(spec, 1)
	serial := cts.DefaultOptions()
	serial.Workers = 1
	par := cts.DefaultOptions()
	par.Workers = 4
	var tSerial, tPar time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if _, err := cts.Run(d, serial); err != nil {
			b.Fatal(err)
		}
		tSerial += time.Since(start)
		start = time.Now()
		if _, err := cts.Run(d, par); err != nil {
			b.Fatal(err)
		}
		tPar += time.Since(start)
	}
	if tPar > 0 {
		b.ReportMetric(tSerial.Seconds()/tPar.Seconds(), "speedup")
	}
}

// BenchmarkFig1 renders the Fig. 1 SVG gallery.
func BenchmarkFig1(b *testing.B) {
	rows, err := bench.RunTable1(bench.Table1Net(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bytes int
	for i := 0; i < b.N; i++ {
		bytes = 0
		for _, r := range rows {
			bytes += len(viz.SVG(r.Tree, viz.DefaultStyle(r.Name)))
		}
	}
	b.ReportMetric(float64(bytes), "svg_bytes")
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationCBS quantifies the CBS pipeline stages: BST seed only
// (Step 1), full CBS (Steps 1–5 with in-place repair), and the re-embedding
// variant of Step 5.
func BenchmarkAblationCBS(b *testing.B) {
	cfg := bench.DefaultT23Config()
	opts := core.Options{
		DME:        dme.Options{Model: dme.Elmore, SkewBound: 10, Tech: cfg.Tech},
		TopoMethod: dme.GreedyDist,
		SALTEps:    0.1,
	}
	variants := []struct {
		name  string
		build func(net *tree.Net) (*tree.Tree, error)
	}{
		{"step1-bst-only", func(net *tree.Net) (*tree.Tree, error) { return core.BuildStep1(net, opts) }},
		{"full-cbs", func(net *tree.Net) (*tree.Tree, error) { return core.Build(net, opts) }},
		{"reembed-step5", func(net *tree.Net) (*tree.Tree, error) {
			seed, err := core.BuildStep1(net, opts)
			if err != nil {
				return nil, err
			}
			return core.RefineReembed(net, seed, opts)
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var wl float64
			for i := 0; i < b.N; i++ {
				t, err := v.build(cfg.Net.Random(rng))
				if err != nil {
					b.Fatal(err)
				}
				wl += t.Wirelength()
			}
			b.ReportMetric(wl/float64(b.N), "wl_um")
		})
	}
}

// BenchmarkTopologyGen compares the four BST merging-topology generators.
func BenchmarkTopologyGen(b *testing.B) {
	cfg := bench.DefaultT23Config()
	for _, method := range dme.AllTopoMethods {
		b.Run(method.String(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var wl float64
			for i := 0; i < b.N; i++ {
				net := cfg.Net.Random(rng)
				topo := dme.GenTopo(net, method, 10)
				t, err := dme.Build(net, topo, dme.BST(10))
				if err != nil {
					b.Fatal(err)
				}
				wl += t.Wirelength()
			}
			b.ReportMetric(wl/float64(b.N), "wl_um")
		})
	}
}

// BenchmarkAblationSA measures the partitioning refinement: flow wirelength
// with and without simulated annealing.
func BenchmarkAblationSA(b *testing.B) {
	spec := designgen.Spec{Name: "sa", Insts: 3000, FFs: 700, Util: 0.62}
	for _, useSA := range []bool{false, true} {
		name := "without-sa"
		if useSA {
			name = "with-sa"
		}
		b.Run(name, func(b *testing.B) {
			opts := cts.DefaultOptions()
			opts.UseSA = useSA
			benchFlow(b, spec, opts)
		})
	}
}

// BenchmarkAblationLowerBound measures the insertion-delay estimation modes
// of §3.4 / Fig. 5: none, the Eq-7 lower bound, exact STA.
func BenchmarkAblationLowerBound(b *testing.B) {
	spec := designgen.Spec{Name: "est", Insts: 3000, FFs: 700, Util: 0.62}
	for _, mode := range []struct {
		name string
		est  cts.DelayEst
	}{
		{"est-none", cts.EstNone},
		{"est-eq7-lower-bound", cts.EstLowerBound},
		{"est-exact", cts.EstExact},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := cts.DefaultOptions()
			opts.Est = mode.est
			opts.UseSA = false
			opts.Cons.SkewBound = 12
			benchFlow(b, spec, opts)
		})
	}
}

// BenchmarkDelayModel compares linear vs Elmore DME embedding.
func BenchmarkDelayModel(b *testing.B) {
	cfg := bench.DefaultT23Config()
	for _, m := range []struct {
		name string
		opts dme.Options
	}{
		{"linear", dme.BST(10)},
		{"elmore", dme.Options{Model: dme.Elmore, SkewBound: 10, Tech: cfg.Tech}},
	} {
		b.Run(m.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				net := cfg.Net.Random(rng)
				topo := dme.GenTopo(net, dme.GreedyDist, 10)
				if _, err := dme.Build(net, topo, m.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Component micro-benchmarks -------------------------------------------

func BenchmarkRSMT(b *testing.B) {
	cfg := bench.DefaultNetConfig()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		rsmt.Build(cfg.Random(rng))
	}
}

func BenchmarkSALT(b *testing.B) {
	cfg := bench.DefaultNetConfig()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		salt.Build(cfg.Random(rng), 0.1)
	}
}

func BenchmarkHTree(b *testing.B) {
	cfg := bench.DefaultNetConfig()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		htree.Build(cfg.Random(rng))
	}
}

func BenchmarkZSTDME(b *testing.B) {
	cfg := bench.DefaultNetConfig()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		net := cfg.Random(rng)
		topo := dme.GenTopo(net, dme.GreedyDist, 0)
		if _, err := dme.Build(net, topo, dme.ZST()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKMeansMCF(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*300, rng.Float64()*300)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		centers, _ := partition.KMeansPK(pts, 32, 24, 1, 1, nil)
		partition.BalancedAssignK(pts, centers, 32, nil)
	}
}

// BenchmarkAblationRegions quantifies BST-DME merging regions (Cong et al.)
// versus single-split merging segments: the regions recover most of the
// skew slack as wirelength.
func BenchmarkAblationRegions(b *testing.B) {
	cfg := bench.DefaultT23Config()
	for _, v := range []struct {
		name  string
		greed float64
	}{
		{"segments", dme.SegmentRegions},
		{"regions-half", 0.5},
		{"regions-full", 1},
	} {
		b.Run(v.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			opts := dme.Options{Model: dme.Elmore, SkewBound: 10, Tech: cfg.Tech, RegionGreed: v.greed}
			var wl float64
			for i := 0; i < b.N; i++ {
				net := cfg.Net.Random(rng)
				topo := dme.GenTopo(net, dme.GreedyDist, opts.LengthBudget(net))
				t, err := dme.Build(net, topo, opts)
				if err != nil {
					b.Fatal(err)
				}
				wl += t.Wirelength()
			}
			b.ReportMetric(wl/float64(b.N), "wl_um")
		})
	}
}
