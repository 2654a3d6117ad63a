package bench

import (
	"reflect"
	"runtime"
	"testing"

	"sllt/internal/designgen"
	"sllt/internal/dme"
)

// TestTable1WorkersInvariant: the fanned-out seven-builder run must return
// the same rows, in the same order, with bit-identical metrics as the
// serial run.
func TestTable1WorkersInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	net := Table1Net()
	ref, err := RunTable1(net, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7, 8} {
		rows, err := RunTable1(net, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(ref) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(rows), len(ref))
		}
		for i := range ref {
			if rows[i].Name != ref[i].Name || rows[i].Metrics != ref[i].Metrics {
				t.Errorf("workers=%d row %d: %s %+v != serial %s %+v",
					workers, i, rows[i].Name, rows[i].Metrics, ref[i].Name, ref[i].Metrics)
			}
		}
	}
}

// TestTable23WorkersInvariant: each (method, bound) cell derives its net
// stream from cfg.Seed alone, so the parallel tables must be bit-identical
// to the serial ones — formatting included.
func TestTable23WorkersInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	cfg := DefaultT23Config()
	cfg.Nets = 15
	cfg.Methods = []dme.TopoMethod{dme.GreedyDist, dme.GreedyMerge}
	cfg.Bounds = []float64{80, 10}

	ref2, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref3, err := RunTable3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		pcfg := cfg
		pcfg.Workers = workers
		got2, err := RunTable2(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if FormatTable2(got2, pcfg) != FormatTable2(ref2, cfg) {
			t.Errorf("workers=%d: Table 2 differs from serial", workers)
		}
		got3, err := RunTable3(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		if FormatTable3(got3, pcfg) != FormatTable3(ref3, cfg) {
			t.Errorf("workers=%d: Table 3 differs from serial", workers)
		}
	}
}

// TestRunFlowsWorkersInvariant: threading Workers into the flows must not
// change any synthesis result (Runtime is wall clock and excluded).
func TestRunFlowsWorkersInvariant(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	spec := ScaleSpec(Table6Specs()[0], 0.15)
	ref := RunFlows([]designgen.Spec{spec}, 1, 1)
	par := RunFlows([]designgen.Spec{spec}, 1, 8)
	if len(ref) != len(par) {
		t.Fatalf("result counts differ: %d vs %d", len(ref), len(par))
	}
	for i := range ref {
		a, b := ref[i], par[i]
		a.Runtime, b.Runtime = 0, 0
		if !reflect.DeepEqual(a, b) {
			t.Errorf("flow %s/%s differs with workers: %+v vs %+v", ref[i].Design, ref[i].Flow, a, b)
		}
	}
}
