package cts

import (
	"testing"

	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/obs"
	"sllt/internal/tree"
)

// TestObsInvariance is the core observability property: attaching a
// recorder must never change a byte of the synthesized result. The flow is
// run with obs disabled and enabled, serial and parallel (W=1 and W=8), on
// both the tiny hand-built golden design and a generated Table-4-class
// design; every combination must export byte-identical DEF and an
// identical canonical tree fingerprint. A divergence here means an
// instrumentation hook leaked into algorithm state (e.g. a measurement
// that perturbs iteration order or float accumulation).
func TestObsInvariance(t *testing.T) {
	designs := map[string]struct {
		d       *design.Design
		saIters int
	}{
		"golden": {d: goldenDesign()},
		"gen":    {d: designgen.Generate(designgen.Spec{Name: "obsgen", Insts: 700, FFs: 140, Util: 0.6}, 5), saIters: 40},
	}
	for name, dt := range designs {
		t.Run(name, func(t *testing.T) {
			type runOut struct {
				def string
				fp  string
			}
			run := func(workers int, withObs bool) runOut {
				opts := DefaultOptions()
				if dt.saIters > 0 {
					opts.SAIters = dt.saIters
				}
				opts.Workers = workers
				if withObs {
					opts.Obs = obs.New(obs.NewManualClock(1))
				}
				res, err := Run(dt.d, opts)
				if err != nil {
					t.Fatal(err)
				}
				return runOut{
					def: ExportDEF(dt.d, res).WriteDEF(),
					fp:  tree.Fingerprint(res.Tree),
				}
			}
			base := run(1, false)
			for label, got := range map[string]runOut{
				"W=1 obs on":  run(1, true),
				"W=8 obs off": run(8, false),
				"W=8 obs on":  run(8, true),
			} {
				if got.fp != base.fp {
					t.Errorf("%s: tree fingerprint differs from W=1 obs off", label)
				}
				if got.def != base.def {
					t.Errorf("%s: exported DEF differs from W=1 obs off (lengths %d vs %d)",
						label, len(got.def), len(base.def))
				}
			}
		})
	}
}

// TestRunReportSchema serializes a real flow's run report and cross-checks
// it against the synthesis result it describes — one level record per tree level,
// totals matching the timing report, and all four stage spans present.
// The canonical byte-level fixture lives in internal/obs
// (testdata/report_golden.json); this test pins the producer side.
func TestRunReportSchema(t *testing.T) {
	spec := designgen.Spec{Name: "repgen", Insts: 600, FFs: 120, Util: 0.6}
	d := designgen.Generate(spec, 13)
	opts := DefaultOptions()
	opts.SAIters = 40
	opts.Obs = obs.New(obs.NewManualClock(1))
	res, err := Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := opts.Obs.Snapshot()
	if _, err := rep.JSON(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Levels) != res.Levels {
		t.Errorf("report has %d level records, flow built %d levels", len(rep.Levels), res.Levels)
	}
	if rep.Design != d.Name {
		t.Errorf("report design = %q, want %q", rep.Design, d.Name)
	}
	if got, want := rep.Totals.Buffers, res.Report.Buffers; got != want {
		t.Errorf("report total buffers = %d, timing report says %d", got, want)
	}
	if got, want := rep.Totals.WL, res.Report.WL; got != want {
		t.Errorf("report total WL = %g, timing report says %g", got, want)
	}
	stages := rep.StageNs()
	for _, name := range []string{"level", "partition", "assign", "sa", "clusters", "top_net", "timing"} {
		if stages[name] <= 0 {
			t.Errorf("stage %q missing from span tree (durations: %v)", name, stages)
		}
	}
}
