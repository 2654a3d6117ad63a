package obs

import (
	"sort"
	"sync"
)

// SchemaVersion identifies the run-report JSON layout, which the Report
// types define. Bump it on any backwards-incompatible change and regenerate
// testdata/report_golden.json (go test ./internal/obs -run TestReportGolden
// -update). v1.1 adds the optional "cache" section (per-stage cache hit/miss/byte
// counters); everything in v1 is unchanged.
const SchemaVersion = "sllt.obs.report/v1.1"

// Recorder collects one run's spans, metrics and QoR records. The nil
// *Recorder is the disabled state: every method no-ops (returning nil
// handles whose methods also no-op), allocating nothing — the flow's
// default configuration pays one pointer test per instrumentation site.
//
// A Recorder is safe for concurrent use: spans, kernel counters and
// distributions may be touched from parallel cluster tasks; QoR records are
// written by the serial level loop.
type Recorder struct {
	clock  Clock
	sink   Sink
	root   *Span
	kernel KernelCounters

	mu      sync.Mutex
	design  string
	engine  string
	seed    int64
	workers int
	dists   map[string]*Dist
	levels  []LevelQoR
	totals  Totals
	cache   *CacheJSON
}

// New returns an enabled Recorder using the given clock (nil selects the
// production wall clock). The root span "run" starts immediately.
func New(clock Clock) *Recorder { return NewWithSink(clock, nil) }

// NewWithSink is New with a live event sink attached: every span begin/end
// and level-QoR record is forwarded to sink as it happens (see Sink for the
// concurrency contract). A nil sink is New.
func NewWithSink(clock Clock, sink Sink) *Recorder {
	if clock == nil {
		clock = NewWallClock()
	}
	r := &Recorder{
		clock: clock,
		sink:  sink,
		dists: make(map[string]*Dist),
	}
	r.root = &Span{rec: r, name: "run", task: -1, start: clock.Now()}
	r.emit(Event{Kind: EventSpanBegin, Span: "run", Task: -1, AtNs: r.root.start})
	return r
}

// Enabled reports whether the recorder collects anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Root returns the implicit "run" span (nil when disabled).
func (r *Recorder) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Begin starts a top-level stage span under the run root.
func (r *Recorder) Begin(name string) *Span { return r.Root().Begin(name) }

// Kernel returns the run's kernel counter block (nil when disabled), for
// plumbing into dme.Options, buffering.Inserter and the partition stats.
func (r *Recorder) Kernel() *KernelCounters {
	if r == nil {
		return nil
	}
	return &r.kernel
}

// SetMeta records the run identity serialized in the report header.
func (r *Recorder) SetMeta(design, engine string, seed int64, workers int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.design, r.engine, r.seed, r.workers = design, engine, seed, workers
	r.mu.Unlock()
}

// AddLevel appends one level's QoR record (called by the serial level loop,
// bottom-up).
func (r *Recorder) AddLevel(q LevelQoR) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.levels = append(r.levels, q)
	r.mu.Unlock()
	// Sink-gated so the sink-less path neither reads the clock (ManualClock
	// sequences are part of the golden fixtures) nor heap-copies q.
	if r.sink != nil {
		lq := q
		r.sink.Emit(Event{Kind: EventLevel, Task: -1, AtNs: r.clock.Now(), Level: &lq})
	}
}

// SetTotals records the flow's final QoR numbers.
func (r *Recorder) SetTotals(t Totals) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.totals = t
	r.mu.Unlock()
}

// Dist returns (registering on first use) the named distribution with the
// given ascending bucket bounds. The first registration fixes the layout.
func (r *Recorder) Dist(name, unit string, bounds []float64) *Dist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.dists[name]; ok {
		return d
	}
	d := newDist(name, unit, bounds)
	r.dists[name] = d
	return d
}

// Snapshot serializes the recorder into a canonical Report. The run root
// span is closed as of the call; kernel counters appear as "kernel.*"
// counter metrics alongside the distributions, sorted by name.
func (r *Recorder) Snapshot() *Report {
	if r == nil {
		return nil
	}
	if r.root.dur == 0 {
		r.root.End()
	}
	r.mu.Lock()
	rep := &Report{
		Schema:  SchemaVersion,
		Design:  r.design,
		Engine:  r.engine,
		Seed:    r.seed,
		Workers: r.workers,
		Levels:  append([]LevelQoR(nil), r.levels...),
		Totals:  r.totals,
		Cache:   r.cache,
	}
	for _, d := range r.dists {
		rep.Metrics = append(rep.Metrics, d.snapshot())
	}
	r.mu.Unlock()
	for _, m := range kernelMetrics(r.kernel.Snapshot()) {
		rep.Metrics = append(rep.Metrics, m)
	}
	sort.Slice(rep.Metrics, func(i, j int) bool { return rep.Metrics[i].Name < rep.Metrics[j].Name })
	rep.Span = r.root.snapshot()
	return rep
}

// kernelMetrics flattens a kernel snapshot into counter metrics.
func kernelMetrics(s KernelSnapshot) []MetricJSON {
	entries := []struct {
		name string
		v    int64
	}{
		{"kernel.rsmt.steiner_inserts", s.SteinerInserts},
		{"kernel.dme.merges", s.DMEMerges},
		{"kernel.dme.snakes", s.DMESnakes},
		{"kernel.buffering.inserted", s.BufInserted},
		{"kernel.buffering.decoupled", s.BufDecoupled},
		{"kernel.partition.kmeans_iters", s.KMeansIters},
		{"kernel.partition.sa_proposed", s.SAProposed},
		{"kernel.partition.sa_accepted", s.SAAccepted},
		{"kernel.partition.mcf_augments", s.MCFAugments},
		{"kernel.grid.queries", s.GridQueries},
		{"kernel.grid.ring_steps", s.GridRingSteps},
	}
	out := make([]MetricJSON, len(entries))
	for i, e := range entries {
		out[i] = MetricJSON{Name: e.name, Kind: "counter", Unit: UnitNone, Value: float64(e.v)}
	}
	return out
}
