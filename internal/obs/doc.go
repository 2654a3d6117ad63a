// Package obs is the observability layer of the hierarchical CTS flow: a
// span-based stage tracer, kernel counters and distributions, and a
// run-report writer that together turn every synthesis into a
// machine-readable account of where wirelength, skew, latency, buffer area
// and wall-clock time were created or lost — per level, per cluster, per
// kernel.
//
// The package is deliberately zero-dependency (stdlib only) and inert by
// default: the nil *Recorder is the disabled state, every method on every
// type is nil-receiver safe, and the disabled path allocates nothing
// (guarded by an AllocsPerRun==0 test). Observability must never perturb
// the repository's seeded-determinism contract, so time is captured through
// an injectable Clock — the algorithm packages themselves still never call
// time.Now (the wallclock lint rule), and no recorded value feeds back into
// any construction decision.
//
// # Span model
//
// Spans nest level → cluster → kernel. A span started with Begin is a
// sequential child appended in call order; a span started with BeginTask(i,
// name) is pinned to slot i of its parent, which is how the per-cluster
// fan-out of internal/parallel attributes work: tasks may finish in any
// order on any worker, but the serialized span tree lists them by task
// index, byte-identically for every worker count. Durations come from the
// recorder's Clock (monotonic nanoseconds); tests and golden fixtures
// substitute a ManualClock for fully deterministic traces.
//
// # Metrics
//
// A report carries two metric kinds, both safe for concurrent use:
//
//   - counter: the KernelCounters block, monotonically increasing int64s
//     the hot kernels bump directly (atomic adds are order-independent, so
//     totals are identical for any schedule), reported as "kernel.*";
//   - dist: a Dist registered by name, a fixed-bucket distribution (int64
//     bucket counts, count, min/max) for per-level populations such as
//     cluster latencies.
//
// Every metric carries a unit string from the same vocabulary as the
// `// unit:` comments (ps, fF, um, um^2, 1, ...), and LevelQoR's fields
// carry those comments too.
//
// # Report schema
//
// Snapshot serializes the recorder as canonical JSON. The Report types are
// the schema, versioned by the Schema field ("sllt.obs.report/v1.1"), and
// testdata/report_golden.json pins their bytes; any backwards-incompatible
// change to the layout below must bump the version and regenerate the
// golden:
//
//	{
//	  "schema":  "sllt.obs.report/v1.1",
//	  "design":  "<design name>",
//	  "engine":  "<flow name>",
//	  "seed":    1,
//	  "workers": 8,
//	  "levels": [            // bottom-up, one entry per hierarchy level
//	    {
//	      "level": 0, "nodes": 300, "clusters": 12,
//	      "wl_um": 0.0,             // this level's net wire only
//	      "skew_ps": 0.0,           // spread of estimated cluster-root delays
//	      "max_latency_ps": 0.0,
//	      "max_cluster_cap_ff": 0.0,
//	      "buffers": 0, "buf_area_um2": 0.0,
//	      "kmeans_iters": 0, "kmeans_restarts": 0,
//	      "sa_proposed": 0, "sa_accepted": 0, "sa_accept_rate": 0.0,
//	      "assign_method": "mcf" | "greedy" | "",
//	      "grid_queries": 0, "grid_ring_steps": 0, "grid_hit_rate": 0.0
//	    }, ...
//	  ],
//	  "totals": {            // final timing.Report numbers
//	    "wl_um": 0.0, "skew_ps": 0.0, "max_latency_ps": 0.0,
//	    "buffers": 0, "buf_area_um2": 0.0, "clock_cap_ff": 0.0,
//	    "max_stage_cap_ff": 0.0, "max_slew_ps": 0.0
//	  },
//	  "cache": {             // OPTIONAL (v1.1): cache traffic
//	    "stages": [          // sorted by stage name
//	      {"stage": "run", "hits": 0, "misses": 0, "puts": 0,
//	       "hit_rate": 0.0, "bytes_read": 0, "bytes_written": 0}, ...
//	    ],
//	    "hits": 0, "misses": 0, "puts": 0, "hit_rate": 0.0,
//	    "bytes_read": 0, "bytes_written": 0,
//	    "evictions": 0, "disk_errors": 0
//	  },
//	  "metrics": [           // sorted by name; kind "counter" or "dist"
//	    {"name": "kernel...", "kind": "counter", "unit": "1", "value": 0},
//	    {"name": "...", "kind": "dist", "unit": "1", "count": 0,
//	     "min": 0.0, "max": 0.0, "bounds": [...], "buckets": [...]},
//	  ],
//	  "span": {              // root of the span tree
//	    "name": "run", "start_ns": 0, "dur_ns": 0,
//	    "task": -1,          // >= 0 for BeginTask children
//	    "children": [...]    // sequential children, then tasks by index
//	  }
//	}
//
// Map-free serialization plus sorted metrics make the encoding canonical:
// two recorders holding the same data produce the same bytes.
package obs
