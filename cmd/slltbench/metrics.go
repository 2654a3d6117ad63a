package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one metric BENCHMARK.json declares. main_test.go holds the
// two lists below and BENCHMARK.json equal in both directions.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the flow sees, measured with tracing
// off. Every workload reports all of them (see doc.go for what each means
// per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"turnaround_s", "s"},
	{"sinks_per_s", "sinks/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the per-module metrics of the traced run. Every workload
// reports all of them; a layer a workload never enters reports 0, and no
// such metric is a time, so a zero is never mistaken for a measurement.
var perLayer = []metricDef{
	{"lefdef.parse_def_s", "s"},
	{"lefdef.parse_def_mb_per_s", "MB/s"},
	{"design.from_lefdef_s", "s"},
	{"cts.export_def_s", "s"},
	{"cts.export_def_mb_per_s", "MB/s"},
	{"partition.kmeans_s", "s"},
	{"partition.kmeans_iters", "count"},
	{"partition.silhouette_s", "s"},
	{"partition.assign_s", "s"},
	{"partition.mcf_augments", "count"},
	{"partition.sa_s", "s"},
	{"partition.sa_proposed", "count"},
	{"partition.sa_accept_ratio", "ratio"},
	{"partition.max_cluster_size", "count"},
	{"partition.assign_dist_mm", "mm"},
	{"cts.partition_s", "s"},
	{"cts.clusters_s", "s"},
	{"cts.top_net_s", "s"},
	{"cts.timing_s", "s"},
	{"cts.unattributed_s", "s"},
	{"cts.levels", "count"},
	{"parallel.cluster_efficiency", "ratio"},
	{"dme.merges", "count"},
	{"dme.snakes", "count"},
	{"rsmt.steiner_inserts", "count"},
	{"buffering.inserted", "count"},
	{"buffering.decoupled", "count"},
	{"grid.queries", "count"},
	{"grid.ring_steps_per_query", "ratio"},
	{"timing.analyze_s", "s"},
	{"cache.warm.cluster_hit_ratio", "ratio"},
	{"cache.eco.cluster_hit_ratio", "ratio"},
	{"cache.partition_hit_ratio", "ratio"},
	{"cache.warm_speedup", "ratio"},
	{"cache.eco_speedup", "ratio"},
	{"cache.stored_mb", "MB"},
	{"cache.disk_errors", "count"},
	{"server.ingest_share", "ratio"},
	{"server.queue_wait_share", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
	{"obs.overhead_ratio", "ratio"},
	{"qor.skew_ps", "ps"},
	{"qor.max_latency_ps", "ps"},
	{"qor.buffers", "count"},
	{"qor.buf_area_um2", "um2"},
	{"qor.clock_cap_ff", "fF"},
	{"qor.wl_mm", "mm"},
	{"qor.constraint_fail_ratio", "ratio"},
}

// metric is one reported number. Timings taken over several samples carry
// the sample count and quartiles; the value is then the median.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
}

// result is one workload run: the metrics it measured and the operations it
// attempted, with every failed operation or check listed.
type result struct {
	Workload  string   `json:"workload"`
	Trace     bool     `json:"trace"`
	Seed      int64    `json:"seed"`
	Seconds   int      `json:"seconds"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	WallS     float64  `json:"wall_s"`
	Metrics   []metric `json:"metrics"`
}

// add records a single-valued metric.
func (r *result) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: v, N: 1})
}

// addSamples records the median of samples with its count and quartiles.
func (r *result) addSamples(name, unit string, samples []float64) {
	q := quartiles(samples)
	r.Metrics = append(r.Metrics, metric{Name: name, Unit: unit, Value: q[1], N: len(samples), Q1: q[0], Q3: q[2]})
}

// fail counts one failed operation or check.
func (r *result) fail(err error) {
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
}

func (r *result) correct() bool { return len(r.Errors) == 0 }

func (r *result) lookup(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// quartiles returns the first quartile, median and third quartile of xs,
// computed like Python's statistics.quantiles(xs, n=4) (the exclusive
// method); a single sample is all three.
func quartiles(xs []float64) [3]float64 {
	if len(xs) == 0 {
		return [3]float64{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// percentile returns the p-quantile (0..1) of xs by linear interpolation.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// geomean is the geometric mean of positive xs (0 if any is not positive).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printResult writes one line per metric, "workload metric value unit
// (n=…)", with quartiles on multi-sample timings, then one per failure.
func printResult(w io.Writer, r *result) {
	for _, m := range r.Metrics {
		stats := fmt.Sprintf("n=%d", m.N)
		if m.N > 1 {
			stats += fmt.Sprintf(", q1=%.6g, q3=%.6g", m.Q1, m.Q3)
		}
		fmt.Fprintf(w, "%s %s %.6g %s (%s)\n", r.Workload, m.Name, m.Value, m.Unit, stats)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "%s FAILED %s\n", r.Workload, strings.ReplaceAll(e, "\n", " "))
	}
}

// summaryValue is one metric of the summary line.
type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the machine-read last line of a single-workload run: the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one — exactly the set BENCHMARK.json declares for that mode.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

// summarize selects the declared metrics of r's mode. A declared metric the
// run did not produce marks the run incorrect: the metric set is part of
// the benchmark's contract.
func summarize(r *result) summary {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	s := summary{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryValue{}}
	for _, d := range defs {
		m, ok := r.lookup(d.name)
		if !ok {
			s.Correct = false
			continue
		}
		s.Metrics[d.name] = summaryValue{Value: m.Value, Unit: m.Unit}
	}
	if s.Attempted < 1 {
		s.Attempted = 1
		s.Correct = false
	}
	return s
}

func writeSummary(w io.Writer, r *result) error {
	data, err := json.Marshal(summarize(r))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
