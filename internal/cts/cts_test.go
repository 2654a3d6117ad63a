package cts

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sllt/internal/designgen"
	"sllt/internal/dme"
	"sllt/internal/invariants"
	"sllt/internal/parallel"
	"sllt/internal/tree"
)

func TestRunSmallDesign(t *testing.T) {
	spec := designgen.Spec{Name: "unit", Insts: 2000, FFs: 400, Util: 0.6}
	d := designgen.Generate(spec, 1)
	opts := DefaultOptions()
	opts.SAIters = 100
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := invariants.CheckTree(res.Tree); err != nil {
		t.Fatal(err)
	}
	if err := invariants.CheckLoad(res.Tree, opts.Tech.CPerUm); err != nil {
		t.Fatal(err)
	}
	// Every FF must appear exactly once.
	seen := map[int]bool{}
	for _, s := range res.Tree.Sinks() {
		if seen[s.SinkIdx] {
			t.Fatalf("sink %d duplicated", s.SinkIdx)
		}
		seen[s.SinkIdx] = true
	}
	if len(seen) != 400 {
		t.Fatalf("tree drives %d FFs, want 400", len(seen))
	}
	rep := res.Report
	if rep.Buffers == 0 {
		t.Error("no buffers inserted")
	}
	if rep.Skew > opts.Cons.SkewBound {
		t.Errorf("skew %.2f ps exceeds bound %.2f", rep.Skew, opts.Cons.SkewBound)
	}
	if rep.MaxLatency <= 0 || rep.MaxLatency > 400 {
		t.Errorf("implausible latency %.2f ps", rep.MaxLatency)
	}
	if rep.MaxStgCap > opts.Cons.MaxCap*1.5 {
		t.Errorf("stage cap %.1f far above limit", rep.MaxStgCap)
	}
	if res.Levels < 2 {
		t.Errorf("expected a hierarchy, got %d levels", res.Levels)
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := designgen.Spec{Name: "unit", Insts: 1000, FFs: 150, Util: 0.6}
	d := designgen.Generate(spec, 2)
	opts := DefaultOptions()
	opts.SAIters = 50
	a, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.MaxLatency != b.Report.MaxLatency || a.Report.WL != b.Report.WL ||
		a.Report.Buffers != b.Report.Buffers {
		t.Error("CTS is not deterministic")
	}
}

// The Fig.-5 claim: delay annotation (Eq 7 lower bound or exact) controls
// skew that estimate-blind flows leak.
func TestDelayEstimationImprovesSkew(t *testing.T) {
	spec := designgen.Spec{Name: "unit", Insts: 3000, FFs: 600, Util: 0.6}
	d := designgen.Generate(spec, 3)

	run := func(est DelayEst) float64 {
		opts := DefaultOptions()
		opts.Est = est
		opts.UseSA = false
		// A binding skew target: annotation-blind balancing cannot see the
		// cluster insertion delays it needs to cancel.
		opts.Cons.SkewBound = 12
		res, err := Run(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Report.Skew
	}
	none := run(EstNone)
	lb := run(EstLowerBound)
	exact := run(EstExact)
	// On uniform synthetic designs the cluster-latency spread is small, so
	// the annotation modes trade places within a narrow band (the decisive
	// cross-level effect shows on skewed workloads and is asserted
	// statistically by the baseline profile test: the estimate-blind
	// OpenROAD-like flow leaks skew). Here: every mode must stay close to
	// the bound, and annotation must never blow up relative to none.
	bound := 12.0
	for name, skew := range map[string]float64{"none": none, "eq7": lb, "exact": exact} {
		if skew > bound*1.6 {
			t.Errorf("%s mode skew %.2f far above the %.0f ps target", name, skew, bound)
		}
	}
	if lb > none*1.6 || exact > none*1.6 {
		t.Errorf("annotation degraded skew: none=%.2f lb=%.2f exact=%.2f", none, lb, exact)
	}
}

func TestEngines(t *testing.T) {
	spec := designgen.Spec{Name: "unit", Insts: 800, FFs: 120, Util: 0.6}
	d := designgen.Generate(spec, 4)
	for name, b := range map[string]TopoBuilder{
		"cbs": CBSBuilder(dme.GreedyDist, 0.1),
		"bst": BSTBuilder(dme.GreedyDist),
		"zst": ZSTBuilder(dme.GreedyDist),
	} {
		opts := DefaultOptions()
		opts.Build = b
		opts.UseSA = false
		if name == "zst" {
			opts.Est = EstNone
		}
		res, err := Run(d, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := invariants.CheckTree(res.Tree); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := len(res.Tree.Sinks()); got != 120 {
			t.Fatalf("%s: %d sinks", name, got)
		}
	}
}

func TestLevelShare(t *testing.T) {
	if got := levelShare(80, 4); got != 20 {
		t.Errorf("levelShare = %g", got)
	}
	if got := levelShare(80, 0); got != 80 {
		t.Errorf("levelShare clamps to %g", got)
	}
	// 1000 FFs -> ~32 clusters -> one top net: two net levels.
	if estLevels(1000, 32) != 2 {
		t.Errorf("estLevels(1000,32) = %d, want 2", estLevels(1000, 32))
	}
	if estLevels(1001, 31) != 3 {
		t.Errorf("estLevels(1001,31) = %d, want 3", estLevels(1001, 31))
	}
	if estLevels(10, 32) != 1 {
		t.Errorf("estLevels(10,32) = %d, want 1", estLevels(10, 32))
	}
}

// TestRunPropagatesBuilderFailure pins the error plumbing through the
// parallel fan-outs: a builder that fails — by error or by panic — must
// surface from Run, never be swallowed into a partial tree. (A dropped
// fan-out error would hand later stages zero-valued results; the restart
// fan-out in bestClustering had exactly that hole.)
func TestRunPropagatesBuilderFailure(t *testing.T) {
	spec := designgen.Spec{Name: "unit", Insts: 500, FFs: 80, Util: 0.6}
	d := designgen.Generate(spec, 3)
	opts := DefaultOptions()
	opts.SAIters = 0
	opts.KMeansRestarts = 2 // exercise the restart fan-out path too
	opts.Build = func(net *tree.Net, dopts dme.Options) (*tree.Tree, error) {
		return nil, errors.New("builder rejected net")
	}
	if _, err := Run(d, opts); err == nil || !strings.Contains(err.Error(), "builder rejected net") {
		t.Fatalf("Run did not surface builder error, got %v", err)
	}

	opts.Build = func(net *tree.Net, dopts dme.Options) (*tree.Tree, error) {
		panic("builder exploded")
	}
	_, err := Run(d, opts)
	if err == nil {
		t.Fatal("Run swallowed builder panic")
	}
	var pe *parallel.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *parallel.PanicError, got %T: %v", err, err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "builder exploded") {
		t.Fatalf("panic value lost: %v", pe.Value)
	}
}

// TestRunRejectsImpossibleConstraints: constraints no tree can meet must
// fail fast with an error naming the constraint. Each case runs under a
// deadline with panics recovered, so a hang or a crash fails the case
// instead of stalling or killing the suite.
func TestRunRejectsImpossibleConstraints(t *testing.T) {
	d := designgen.Generate(designgen.Spec{Name: "unit", Insts: 500, FFs: 80, Util: 0.6}, 3)
	cases := []struct {
		name string
		mut  func(*Constraints)
		want string
	}{
		{"fanout0", func(c *Constraints) { c.MaxFanout = 0 }, "fanout"},
		{"fanout1", func(c *Constraints) { c.MaxFanout = 1 }, "fanout"},
		{"fanoutNeg", func(c *Constraints) { c.MaxFanout = -3 }, "fanout"},
		{"cap0", func(c *Constraints) { c.MaxCap = 0 }, "cap"},
		{"capNeg", func(c *Constraints) { c.MaxCap = -1 }, "cap"},
		{"skewNeg", func(c *Constraints) { c.SkewBound = -5 }, "skew"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.SAIters = 0
			c.mut(&opts.Cons)
			type outcome struct {
				err   error
				panic any
			}
			done := make(chan outcome, 1)
			go func() {
				defer func() {
					if r := recover(); r != nil {
						done <- outcome{panic: r}
					}
				}()
				_, err := Run(d, opts)
				done <- outcome{err: err}
			}()
			select {
			case o := <-done:
				if o.panic != nil {
					t.Fatalf("Run panicked: %v", o.panic)
				}
				if o.err == nil || !strings.Contains(o.err.Error(), c.want) {
					t.Fatalf("Run error = %v, want one naming %q", o.err, c.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Run did not return within 5 s")
			}
		})
	}
}
