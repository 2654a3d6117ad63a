package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sllt/internal/designgen"
)

// toySizes shrinks every workload so the whole suite runs in seconds.
func toySizes() sizes {
	return sizes{
		paper6: []designgen.Spec{
			{Name: "toy_a", Insts: 400, FFs: 80, Util: 0.6},
			{Name: "toy_b", Insts: 600, FFs: 120, Util: 0.6},
		},
		large:     designgen.Spec{Name: "toy_large", Insts: 1200, FFs: 300, Util: 0.62},
		eco:       designgen.Spec{Name: "toy_eco", Insts: 800, FFs: 200, Util: 0.6},
		jobMin:    60,
		jobMax:    120,
		jobRate:   20,
		setupReps: 2,
	}
}

// benchmarkJSON is the part of ../../BENCHMARK.json the benchmark's code
// must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at toy size, untraced
// and traced, and checks that each summary line carries exactly the metrics
// BENCHMARK.json declares for that mode, with the declared units.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			declared := b.EndToEnd
			if trace {
				declared = b.PerLayer
			}
			res := runWorkload(w, config{seed: 3, seconds: 1, trace: trace, sizes: toySizes()})
			for _, e := range res.Errors {
				t.Errorf("%s trace=%v: %s", w.name, trace, e)
			}
			s := summarize(res)
			for _, d := range declared {
				m, ok := s.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: declared metric %s not emitted", w.name, trace, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, BENCHMARK.json says %q", w.name, trace, d.Name, m.Unit, d.Unit)
				}
			}
			if len(s.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: summary has %d metrics, BENCHMARK.json declares %d", w.name, trace, len(s.Metrics), len(declared))
			}
			if !s.Correct || s.Attempted < 1 || s.Failed != 0 {
				t.Errorf("%s trace=%v: summary %+v", w.name, trace, s)
			}
		}
	}
}

// TestDroppedSinkFailsChecks exports a real run, drops one sink's clock
// connection from the DEF and expects the checks to refuse it.
func TestDroppedSinkFailsChecks(t *testing.T) {
	dir := t.TempDir()
	ins, err := writeInputs(dir, []designgen.Spec{{Name: "toy", Insts: 300, FFs: 100, Util: 0.6}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := flowOptions()
	r, err := runPipeline(ins[0], opts, filepath.Join(dir, "out.def"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkRun(r, opts); err != nil {
		t.Fatalf("intact run fails its checks: %v", err)
	}
	data, err := os.ReadFile(r.outPath)
	if err != nil {
		t.Fatal(err)
	}
	const conn = "( ff_00007 CK )"
	broken := strings.Replace(string(data), conn, "", 1)
	if broken == string(data) {
		t.Fatalf("exported DEF has no %s connection", conn)
	}
	if err := os.WriteFile(r.outPath, []byte(broken), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkRun(r, opts); err == nil || !strings.Contains(err.Error(), "ff_00007/CK") {
		t.Fatalf("DEF without sink ff_00007 passed the checks (err %v)", err)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
