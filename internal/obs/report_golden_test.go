package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden fixtures")

// goldenRecorder builds a fully-populated recorder with the deterministic
// clock, exercising every serialized feature: nested and task spans,
// a distribution, kernel counters, level QoR, totals and the cache section.
func goldenRecorder() *Recorder {
	rec := New(NewManualClock(100))
	rec.SetMeta("golden16", "sllt-cts", 7, 4)

	lv := rec.Begin("level")
	part := lv.Begin("partition")
	part.End()
	for i := 0; i < 3; i++ {
		ts := lv.BeginTask(i, "cluster")
		ts.Begin("topology").End()
		ts.End()
	}
	lv.End()
	top := rec.Begin("top-net")
	top.End()

	d := rec.Dist("cts.net_wl", UnitUm, []float64{100, 1000, 10000})
	for _, v := range []float64{40, 250, 3000, 800} {
		d.Observe(v)
	}
	k := rec.Kernel()
	k.MSTBuilds.Add(4)
	k.MSTPoints.Add(64)
	k.SteinerInserts.Add(11)
	k.DMEMerges.Add(60)
	k.BufInserted.Add(9)
	k.KMeansIters.Add(35)
	k.SAProposed.Add(1200)
	k.SAAccepted.Add(300)
	k.GridQueries.Add(480)
	k.GridRingSteps.Add(96)

	rec.AddLevel(LevelQoR{
		Level: 0, Nodes: 16, Clusters: 4,
		WL: 1234.5, Skew: 9.25, MaxLatency: 87.5, MaxClusterCap: 42.0,
		Buffers: 9, BufArea: 18.75,
		KMeansIters: 35, KMeansRestarts: 5,
		SAProposed: 1200, SAAccepted: 300, SAAcceptRate: 0.25,
		AssignMethod: "mcf",
		GridQueries:  480, GridRingSteps: 96, GridHitRate: 0.8,
	})
	rec.SetTotals(Totals{
		WL: 1500.25, Skew: 12.5, MaxLatency: 95.0,
		Buffers: 10, BufArea: 20.5, ClockCap: 130.0,
		MaxStageCap: 45.0, MaxSlew: 60.0,
	})
	rec.SetCache(&CacheJSON{
		Stages: []CacheStageJSON{
			{Stage: "cluster_build", Hits: 3, Misses: 1, Puts: 1, HitRate: 0.75, BytesRead: 4096, BytesWritten: 1024},
			{Stage: "partition", Hits: 1, Misses: 0, Puts: 0, HitRate: 1.0},
		},
		Hits: 4, Misses: 1, Puts: 1, HitRate: 0.8,
		BytesRead: 4096, BytesWritten: 1024, Evictions: 2, DiskErrors: 0,
	})
	return rec
}

// TestReportGolden pins the exact serialized report bytes. Any change to
// the schema, field order, or canonical encoding shows up as a diff here;
// regenerate deliberately with -update after bumping SchemaVersion if the
// change is intended.
func TestReportGolden(t *testing.T) {
	rep := goldenRecorder().Snapshot()
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateReport(got); err != nil {
		t.Fatalf("golden report does not validate: %v", err)
	}
	path := filepath.Join("testdata", "report_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report bytes differ from golden fixture %s\n--- got ---\n%s", path, got)
	}
}

// TestReportGoldenStable re-runs the golden construction and requires
// byte-identical output: the serialization path itself is deterministic.
func TestReportGoldenStable(t *testing.T) {
	a, err := goldenRecorder().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	b, err := goldenRecorder().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two identical recorder constructions serialized differently")
	}
}
