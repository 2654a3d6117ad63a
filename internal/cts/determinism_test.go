package cts

import (
	"runtime"
	"testing"

	"sllt/internal/designgen"
)

// TestRunDeterministicDEF is the end-to-end determinism regression: it
// catches map-order, global-rand and goroutine-schedule leaks, which change
// a run's output from one run to the next. Running the full hierarchical flow
// on a Table-4-class synthetic design must export byte-identical DEF — not
// just matching aggregate report numbers, which can agree while buffer
// placements or net decompositions silently differ. The check covers both
// axes: same seed, same Workers (run-to-run stability) and serial vs
// parallel (Workers=1 vs Workers=8), which is the regression oracle for the
// internal/parallel execution layer — any completion-order or
// float-reordering leak in the fanned-out cluster builds, k-means passes or
// clustering restarts shows up here as a byte diff.
func TestRunDeterministicDEF(t *testing.T) {
	// The box has however many cores CI grants it; force real goroutine
	// interleaving for the parallel runs regardless.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)

	// A scaled-down s38584-class design: same utilization and FF ratio,
	// sized so the runs stay fast in CI.
	spec := designgen.Spec{Name: "s38584_cls", Insts: 900, FFs: 150, Util: 0.60}
	d := designgen.Generate(spec, 7)

	run := func(workers int) string {
		opts := DefaultOptions()
		opts.SAIters = 60
		opts.Workers = workers
		res, err := Run(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ExportDEF(d, res).WriteDEF()
	}

	serial := run(1)
	for name, other := range map[string]string{
		"rerun with Workers=1": run(1),
		"run with Workers=8":   run(8),
	} {
		if other == serial {
			continue
		}
		// Locate the first divergence for a useful failure message.
		i := 0
		for i < len(serial) && i < len(other) && serial[i] == other[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		ha, hb := serial[lo:min(i+60, len(serial))], other[lo:min(i+60, len(other))]
		t.Fatalf("%s exports different DEF than serial (lengths %d vs %d); first divergence at byte %d:\n serial: …%s…\n other:  …%s…",
			name, len(serial), len(other), i, ha, hb)
	}
}

// TestRunDeterministicDEFWorkersSweep drives the flow across the full
// worker range on a smaller design, so a scheduling dependence that only
// shows at a particular fan-out width still gets caught.
func TestRunDeterministicDEFWorkersSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("workers sweep is a race-CI test")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)

	spec := designgen.Spec{Name: "sweep", Insts: 400, FFs: 80, Util: 0.60}
	d := designgen.Generate(spec, 3)
	run := func(workers int) string {
		opts := DefaultOptions()
		opts.SAIters = 40
		opts.Workers = workers
		res, err := Run(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ExportDEF(d, res).WriteDEF()
	}
	ref := run(1)
	for _, w := range []int{2, 3, 4, 8, 64} {
		if got := run(w); got != ref {
			t.Fatalf("Workers=%d DEF differs from serial (%d vs %d bytes)", w, len(got), len(ref))
		}
	}
}
