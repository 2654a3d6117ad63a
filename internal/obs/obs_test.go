package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestDisabledPathAllocs pins the disabled-observability contract: every
// instrumentation primitive on a nil recorder must allocate nothing, so the
// default flow configuration is a no-op apart from nil checks.
func TestDisabledPathAllocs(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(100, func() {
		sp := rec.Begin("stage")
		child := sp.Begin("inner")
		task := sp.BeginTask(3, "task")
		task.End()
		child.End()
		sp.End()
		rec.Dist("d", UnitUm, []float64{1, 2}).Observe(1.0)
		if k := rec.Kernel(); k != nil { // the increment-site idiom
			k.SteinerInserts.Add(1)
		}
		rec.Kernel().Snapshot()
		rec.AddLevel(LevelQoR{})
		rec.SetTotals(Totals{})
		rec.SetMeta("d", "e", 1, 2)
		_ = rec.Snapshot()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %v times per run, want 0", allocs)
	}
}

func TestDisabledAccessors(t *testing.T) {
	var rec *Recorder
	if rec.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if rec.Root() != nil || rec.Begin("x") != nil || rec.Kernel() != nil {
		t.Fatal("nil recorder returned non-nil handles")
	}
	var sp *Span
	if sp.Name() != "" || sp.Duration() != 0 {
		t.Fatal("nil span accessors not zero")
	}
	var d *Dist
	d.Observe(1)
}

// TestManualClockSpans checks span timing against the deterministic clock:
// every Now() call advances by the step, so durations are exact.
func TestManualClockSpans(t *testing.T) {
	rec := New(NewManualClock(10))
	// root start consumed t=0; next Now() returns 10.
	sp := rec.Begin("stage") // start=10
	in := sp.Begin("inner")  // start=20
	in.End()                 // end=30 -> dur 10
	sp.End()                 // end=40 -> dur 30
	if got := in.Duration(); got != 10 {
		t.Fatalf("inner duration = %d, want 10", got)
	}
	if got := sp.Duration(); got != 30 {
		t.Fatalf("stage duration = %d, want 30", got)
	}
	rep := rec.Snapshot()
	if rep.Span.Name != "run" || len(rep.Span.Children) != 1 {
		t.Fatalf("unexpected root span shape: %+v", rep.Span)
	}
}

// TestTaskSpanOrder checks the determinism contract of BeginTask: no matter
// the completion order of concurrent tasks, serialization is by task index,
// after sequential children.
func TestTaskSpanOrder(t *testing.T) {
	rec := New(NewManualClock(1))
	sp := rec.Begin("fanout")
	seq := sp.Begin("prep")
	seq.End()
	const n = 16
	var wg sync.WaitGroup
	for i := n - 1; i >= 0; i-- { // start in reverse to stress ordering
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts := sp.BeginTask(i, "cluster")
			ts.End()
		}(i)
	}
	wg.Wait()
	sp.End()
	js := sp.snapshot()
	if len(js.Children) != n+1 {
		t.Fatalf("got %d children, want %d", len(js.Children), n+1)
	}
	if js.Children[0].Name != "prep" || js.Children[0].Task != -1 {
		t.Fatalf("sequential child not first: %+v", js.Children[0])
	}
	for i := 0; i < n; i++ {
		c := js.Children[i+1]
		if c.Task != i || c.Name != "cluster" {
			t.Fatalf("task child %d out of order: task=%d name=%s", i, c.Task, c.Name)
		}
	}
}

func TestDist(t *testing.T) {
	rec := New(NewManualClock(1))
	d := rec.Dist("wl", UnitUm, []float64{10, 100})
	if rec.Dist("wl", UnitUm, []float64{1}) != d {
		t.Fatal("second registration by name returned a different dist")
	}
	for _, v := range []float64{5, 50, 500, 7} {
		d.Observe(v)
	}
	m := d.snapshot()
	if m.Count != 4 || m.Min != 5 || m.Max != 500 {
		t.Fatalf("dist snapshot = %+v", m)
	}
	want := []int64{2, 1, 1}
	for i, b := range m.Buckets {
		if b != want[i] {
			t.Fatalf("bucket %d = %d, want %d", i, b, want[i])
		}
	}
}

// TestDistConcurrent checks that parallel observers produce an
// order-independent snapshot (counts and extrema, no float sums).
func TestDistConcurrent(t *testing.T) {
	rec := New(NewManualClock(1))
	d := rec.Dist("x", UnitNone, []float64{100, 1000})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				d.Observe(float64(w*250 + i))
			}
		}(w)
	}
	wg.Wait()
	m := d.snapshot()
	if m.Count != 2000 || m.Min != 0 || m.Max != 1999 {
		t.Fatalf("dist = count %d min %v max %v", m.Count, m.Min, m.Max)
	}
	if m.Buckets[0] != 101 || m.Buckets[1] != 900 || m.Buckets[2] != 999 {
		t.Fatalf("buckets = %v", m.Buckets)
	}
}

func TestKernelSnapshotSub(t *testing.T) {
	var k KernelCounters
	k.SteinerInserts.Add(3)
	k.GridQueries.Add(10)
	before := k.Snapshot()
	k.SteinerInserts.Add(2)
	k.GridQueries.Add(5)
	d := k.Snapshot().Sub(before)
	if d.SteinerInserts != 2 || d.GridQueries != 5 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestSnapshotValidates(t *testing.T) {
	rec := New(NewManualClock(5))
	rec.SetMeta("toy", "sllt", 42, 4)
	sp := rec.Begin("level")
	sp.BeginTask(0, "cluster").End()
	sp.End()
	rec.Dist("wl", UnitUm, []float64{10}).Observe(3)
	rec.Kernel().DMEMerges.Add(7)
	rec.AddLevel(LevelQoR{Level: 0, Nodes: 8, Clusters: 2, AssignMethod: "mcf"})
	rec.SetTotals(Totals{WL: 123, Buffers: 4})
	rep := rec.Snapshot()
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"schema": "`+SchemaVersion+`"`) {
		t.Fatalf("snapshot does not carry schema %s:\n%s", SchemaVersion, b)
	}
	var sb strings.Builder
	if err := rep.WriteTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "cluster[0]") {
		t.Fatalf("trace missing task span:\n%s", sb.String())
	}
	if ns := rep.StageNs(); ns["level"] == 0 {
		t.Fatalf("StageNs missing level stage: %v", ns)
	}
}
