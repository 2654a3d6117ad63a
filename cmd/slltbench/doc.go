// Command slltbench is the repository's benchmark. It drives the SLLT flow
// from the outside on four fixed workloads, checks every output, and reports
// end-to-end metrics from untraced runs and per-layer metrics from a traced
// run.
//
// The benchmark is a package of its own with its own build file: go.mod
// beside this file makes it a module that replaces module sllt with the
// repository root, so the whole benchmark lives in this directory and builds
// from it. The repository's `go build ./...` and `go test ./...` therefore
// leave it out, and `go run ./cmd/slltbench` from the root does not find it;
// run it with -C. A change to an internal API that breaks this command shows
// in its own build and test, not in the repository's suite. From the
// repository root:
//
//	go -C cmd/slltbench run . -seed 1       # every workload, both modes
//	bash cmd/slltbench/run.sh --workload paper6 --seed 1 --seconds 15 --trace 0
//	go -C cmd/slltbench test .              # every workload at toy size
//
// run.sh builds the command and runs it with the given flags, keeping the
// build cache, the binary and every temporary file under .bench_build in the
// working directory; BENCHMARK.json names it as the benchmark's command.
//
// # Modes
//
// With -workload the command runs one workload in one mode. It prints one
// line per metric, "workload metric value unit (n=…)", where timings over
// several samples add their q1 and q3, and then a last line of JSON with
// exactly the keys correct, attempted, failed and metrics. -trace 0 repeats
// untraced runs for -seconds and reports the end-to-end metrics that
// BENCHMARK.json declares; -trace 1 runs each of the workload's designs
// untraced and then traced, back to back, and reports the declared
// per-layer metrics (eco10k and the daemon first run one untraced cycle or
// load run of their own for the cache and server layers, and the daemon then
// resubmits its reference designs one at a time). Without
// -workload the command runs every workload untraced and then traced, each in
// a child process of itself so peak_rss_mb is per workload, prints all their
// lines with each run's wall time, and writes the sllt-bench/v2 document
// (-json, default sllt-bench.json): a header with the Go version,
// GOMAXPROCS, nproc, seed and vcs.revision, then one result per workload and
// mode. The command exits non-zero if any check fails.
//
// Inputs are generated from -seed; the flow only ever sees the LEF and DEF
// files, or for the daemon the request bodies, the benchmark writes. The
// flow runs with the paper's options (cts.DefaultOptions, "Ours" in Tables
// 6 and 7) on 2 worker goroutines, and every call goes through the public
// API in cmd/slltcts's order: lefdef.ParseLEFReader and ParseDEFReader,
// design.FromLEFDEF, cts.Run, cts.ExportDEFWriter to a file.
//
// # Workloads
//
// The workloads are sized for a two-core machine: one process, at most two
// worker goroutines and two HTTP connections. Each stresses layers the
// others leave idle, so a change to one layer has a workload that should
// move and one that should stay flat.
//
//   - paper6: the six Table-6 designs (designgen.Table4()[:6], 1.2k-17k
//     sinks), uncached. A pass over the six takes about as long as a run
//     of 15 s, so a measured run is one pass. It is the paper's own QoR
//     surface. Every level has n·k <= 200 000, so the
//     min-cost-flow assignment runs and dominates, SA takes about a tenth
//     of the partition time, and a greedy-assignment change must show no
//     change here.
//   - large100k: one 100 000-sink design in the shape of the I/O
//     benchmark's flow tier (two instances per sink, utilization 0.62),
//     uncached. Greedy assignment, SA, the cluster fan-out of
//     internal/parallel and GC pressure dominate, min-cost flow never runs
//     at level 0, and the tree breaks the 80 ps skew bound. One run takes
//     25-37 s, so a measured run is one repetition.
//   - eco10k: Table-4 ethernet (10k sinks) against an on-disk stage cache,
//     a fresh directory per cycle: a cold run that writes the cache, a warm
//     run with a new cache.New on the same directory that reads it from
//     disk, and a run after 1% of the sinks moved by a sub-site step. It is
//     the only workload where the cache codec, disk tier and LRU do the
//     work, and it sets writes beside reads. With SA on, the move
//     re-partitions level 0 and the ECO run replays no cluster, which leaves
//     incremental partitioning a visible target.
//   - daemon: internal/server in process (2 runners, 2 workers, queue depth
//     8, one shared in-memory cache, one wall clock shared with the load
//     generator) behind a loopback httptest server. Jobs are
//     Table-4-shaped designs of 300-1000 sinks, and every second job
//     resubmits a design that already completed. A closed loop of 2
//     clients first works through a fixed list of fresh designs, 4 per
//     second of -seconds (60 at 15 s), each client its own half of the
//     list, so which designs repeat never depends on timing; then an open
//     loop sends a job every 1/9 s for half of -seconds, about half the
//     closed-loop capacity, on an even schedule so every seed offers the
//     same load. Its fresh designs all have 650 sinks: over the closed
//     loop's mix of sizes the latency median falls between two sizes and
//     jumps between them from run to run. Each job is timed from when it was
//     due, and clients follow its event stream, then fetch status, DEF and
//     report. It is the only workload through internal/server and
//     admission; repeats make ingest, export and JSON the main cost of half
//     of the jobs.
//
// The daemon's job mix is synthetic: no trace of real traffic stands behind
// the share of repeats, the size range or the rate. Each metric depends on
// them as follows. sinks_per_s counts a repeat's sinks although the cache
// makes it nearly free, so it rises with the repeat share (half); it also
// depends on the size range (300-1000 sinks, below Table 4's smallest
// design, so that one job takes well under a second on 2 cores).
// turnaround_s times only the open loop's fresh 650-sink jobs; it depends on
// their size and, through queueing, on the rate: 9 jobs/s, half the closed
// loop's capacity of 17.6 jobs/s measured at seed 1, or two thirds of it in
// a slow spell of the host, when capacity fell to 13 jobs/s. setup_s depends
// on the eight reference designs' sizes alone. cache.partition_hit_ratio
// and server.cache_hit_ratio follow the repeat share;
// cache.warm.cluster_hit_ratio does not, as it comes from repeats sent one
// at a time.
//
// # Checks
//
// Every run is checked, and a failed check fails the run:
//
//   - the exported DEF re-parses with ParseDEFReader, adds one component
//     per reported buffer and connects every sink pin exactly once;
//   - every design sink is exactly one tree leaf, and invariants.CheckTree
//     passes;
//   - timing.Analyze on the final tree equals res.Report;
//   - every repetition of a design exports the same DEF, and the traced
//     run's DEF has the same sha256 as the untraced run's, so the recorder
//     never feeds back;
//   - eco10k: the warm DEF equals the cold one, and the ECO DEF equals one
//     uncached run of the moved design;
//   - daemon: no job is refused or fails; the DEFs of the first eight
//     distinct designs are byte-identical to the offline pipeline's, a
//     resubmitted design returns its first DEF, and the first DEF of every
//     design passes the DEF check;
//   - the traced run replays level 0's partition through
//     partition.KMeansPK, SilhouetteP, BalancedAssignK and RefineSA with the
//     flow's own k, seeds and SA budget; its non-empty cluster count,
//     assignment method, k-means iterations and SA move counts must equal
//     the traced report's Levels[0], so the per-layer split cannot drift
//     from what cts.Run does.
//
// # End-to-end metrics
//
// Every workload reports all four, measured with tracing off. Every timed
// run and set-up repetition starts from a collected heap, as a fresh
// cmd/slltcts process does, so one run's garbage never taxes the next.
//
//   - setup_s: LEF and DEF parse plus design.FromLEFDEF (paper6: summed over
//     the six designs), the median of ten set-up-only repetitions; daemon:
//     server.New to the first /healthz 200 plus that ingest over the eight
//     reference designs, the set-up every job repeats, the median of ten.
//     A server start alone takes about a millisecond, too little to time
//     against the host's jitter.
//   - turnaround_s: DEF file in to post-CTS DEF file out, set-up included,
//     the median over repetitions (paper6: a pass over the six designs;
//     eco10k: the cold, cache-writing run); daemon: the median latency of
//     the open loop's fresh jobs, from when each was due to its done_ns.
//   - sinks_per_s: sinks synthesized per second of measured runs (eco10k:
//     cold, warm and ECO runs together, so a faster cache shows); daemon:
//     sinks completed per second by the closed loop, its capacity.
//   - peak_rss_mb: the process's ru_maxrss, read after the last measured run
//     and before the checks that re-parse its output.
//
// A single-workload run also prints warm_turnaround_s and eco_turnaround_s
// (eco10k), job_p90_s, repeat_turnaround_s, capacity_jobs_per_s,
// generator.lag_p90_s, server.queue_wait_s and server.run_s (daemon), and
// the qor.* values, none of them bounded.
//
// QoR is not an end-to-end metric here. Skew, latency, buffer count and
// area, clock cap and wirelength are deterministic for a seed but chaotic
// across seeds: over seeds 1-10 the 100k-sink design's clock wirelength is
// 365-370 mm at four seeds and 510-676 mm at the other six, and ethernet's
// skew spans 33-58 ps. Across the seeds a benchmark is judged on, no bound
// of at most 25% would hold. The qor.* per-layer metrics report the
// geometric mean over a workload's designs, and the repository's golden DEF
// tests pin the trees exactly.
//
// Bounds are in BENCHMARK.json; see "Spreads" below for why each is what it
// is.
//
// # Per-layer metrics
//
// The traced run reads the span tree and kernel counters of obs.New(nil),
// times the calls into each module from outside, re-times timing.Analyze on
// the final tree, and replays level 0's partition. Each layer, the
// end-to-end metric it moves, where it does most of the work, and where it
// should stay flat:
//
//   - lefdef, design, export: lefdef.parse_def_s, lefdef.parse_def_mb_per_s,
//     design.from_lefdef_s, cts.export_def_s, cts.export_def_mb_per_s. They
//     move setup_s everywhere and turnaround_s on eco10k (warm runs) and the
//     daemon (repeats); under 2% of large100k.
//   - partition (level-0 replay): partition.kmeans_s, kmeans_iters,
//     silhouette_s, assign_s, mcf_augments, sa_s, sa_proposed,
//     sa_accept_ratio, max_cluster_size, assign_dist_mm (sinks to their
//     k-means centers after balanced assignment). They move turnaround_s.
//     SA and greedy assignment dominate large100k, min-cost flow dominates
//     paper6 and the daemon. The restarts replay one after another, so
//     kmeans_s and silhouette_s are busy time, not the flow's wall time.
//   - cts (spans): cts.partition_s, clusters_s, top_net_s, timing_s,
//     unattributed_s (cts.Run wall time not under one of those four spans),
//     cts.levels. They move turnaround_s on paper6 and large100k.
//   - parallel: parallel.cluster_efficiency, the cluster task spans over
//     (clusters spans x workers). It moves turnaround_s on large100k and
//     is flat on paper6.
//   - dme, rsmt, buffering, geom (kernel counters): dme.merges, dme.snakes,
//     rsmt.steiner_inserts, buffering.inserted, buffering.decoupled,
//     grid.queries, grid.ring_steps_per_query. They move turnaround_s and
//     QoR on large100k.
//   - timing: timing.analyze_s. About 0.5% of large100k, so a change here
//     should move no end-to-end metric.
//   - cache: cache.warm.cluster_hit_ratio (eco10k warm run; daemon
//     repeats), cache.eco.cluster_hit_ratio (eco10k ECO run),
//     cache.partition_hit_ratio (eco10k ECO run; daemon: all jobs),
//     cache.warm_speedup (cold over warm turnaround; daemon: fresh over
//     repeat run time), cache.eco_speedup (cold over ECO turnaround),
//     cache.stored_mb, cache.disk_errors. They move sinks_per_s on eco10k
//     and the daemon; the cache is bypassed on paper6 and large100k. A run
//     report's cache section is the change in the shared cache's counters
//     while the run lasted, so under load it also counts the other runner's
//     job. The daemon's warm ratio therefore comes from a phase after the
//     load loops that resubmits the eight reference designs one at a time.
//   - server: server.ingest_share and server.queue_wait_share (of open-loop
//     job latency), server.cache_hit_ratio. They move turnaround_s and
//     sinks_per_s on the daemon only. A refused job fails the run, so a
//     shed ratio would always read 0 and is not reported.
//   - Go runtime and obs: go.alloc_mb, go.gc_cycles, go.gc_cpu_s over the
//     untraced pipelines of one unit of the workload, checks left out
//     (daemon: over the two load loops), and obs.overhead_ratio (traced over
//     untraced cts.Run time, minus 1). They move turnaround_s and
//     peak_rss_mb on large100k (18 GB allocated per run) and the daemon.
//     obs.overhead_ratio compares one run with one run, so the host's noise
//     swamps the recorder's cost: it read -0.25 to +0.27 on eco10k and
//     -0.05 to +0.16 on large100k over six invocations at seed 1.
//   - qor: the geometric means described above, and
//     qor.constraint_fail_ratio, the share of designs with skew over the
//     bound or a stage load over MaxCap.
//
// A layer a workload never enters reports 0; no such metric is a time.
// The daemon's server times are shares of job latency for that reason.
//
// # Seed-commit numbers
//
// Measured on a two-core 2.1 GHz Xeon VM, seed 1, -seconds 15, six full
// invocations. The host's speed moved by up to 40% between invocations, so
// wall times are given as the range seen. Counts, QoR and hit ratios were
// identical in every invocation.
//
//   - paper6: turnaround 12.4-17.5 s per pass of the six designs. Level-0
//     replay: min-cost-flow assignment 9.9-12.2 s (6 915 augmenting paths),
//     SA 1.5-2.0 s, k-means 0.26-0.36 s, silhouette 0.14-0.17 s;
//     cts.partition_s is 11.4-14.7 s and cts.unattributed_s 0.010-0.016 s. A
//     pass allocates 2.3 GB.
//   - large100k: turnaround 28.5-39.3 s; skew 135.1 ps against the 80 ps
//     bound. Level-0 replay: SA 28.0-35.5 s (200 000 moves, 95% accepted),
//     greedy assignment 3.4-4.8 s, k-means 0.98-1.47 s, silhouette
//     0.05-0.10 s; cts.partition_s is 30.1-37.0 s of the traced run and
//     cts.unattributed_s 0.04-0.09 s. A run allocates 17.9 GB; peak RSS is
//     186-249 MB over seeds 1-10.
//   - eco10k: cold 0.92-1.29 s; the warm run is 10.6-14.3x faster and
//     replays every cluster; the ECO run is 0.85-1.11x as fast as cold, no
//     faster, as it replays no cluster and no partition.
//   - daemon: the closed loop completes 13.3-17.7 jobs/s (8 600-11 500
//     sinks/s); fresh open-loop jobs take 0.19-0.26 s at the median and
//     0.22-0.30 s at p90 (from 34 jobs, so under ten lie beyond it),
//     repeats 6-8 ms; the generator runs 1 ms late at p90; queue wait is
//     under 0.1% and ingest 2% of job latency. The repeats replay every
//     cluster (cache.warm.cluster_hit_ratio 1), 52% of partition lookups
//     and 50% of all lookups hit, and all eight reference DEFs are
//     byte-identical to the offline pipeline's.
//
// A full invocation without -workload takes 248-293 s: paper6 14-20 s
// untraced and 38-47 s traced, large100k 31-43 s and 99-120 s, eco10k
// 14-17 s and 5-7 s, daemon 16-19 s and 21-25 s.
//
// # Spreads
//
// The spread of a metric is the distance between the first and third
// quartile of its values over seeds 1-10, as a share of their median. Two
// sets of ten consecutive seeds per workload, one set after the other, gave,
// with the second set's median against the first's (positive: worse):
//
//	            setup_s            turnaround_s       sinks_per_s        peak_rss_mb
//	paper6      0.05 0.06   +2%    0.10 0.07   +5%    0.10 0.06   +5%    0.14 0.17   +6%
//	large100k   0.11 0.15   +8%    0.09 0.05  +10%    0.08 0.05  +10%    0.08 0.08   -3%
//	eco10k      0.15 0.13  +10%    0.05 0.05    0%    0.10 0.06   -1%    0.03 0.05   +1%
//	daemon      0.11 0.16   -3%    0.17 0.11   -7%    0.12 0.19   -4%    0.02 0.02   -1%
//
// Every end-to-end metric has the widest bound allowed, 25%. Every spread
// above is within it, but about half are over a third of it, so the
// benchmark is not as steady as a 25% bound needs. The host is the cause.
// Process CPU time tracks wall time within a run (a paper6 pass took
// 12.5-14.7 s of wall time and 14.4-17.0 s of CPU time, in step) while the
// host reports next to no stolen time, so the vCPUs themselves run slower at
// times. Such slow spells last from seconds to minutes and slow a time by up
// to 40%, which no run of 15 s averages away. The daemon keeps both vCPUs
// busy for its whole closed loop and feels the spells most. At seed 1, six
// full invocations split into two alternating sets of three agreed within
// 15% on every pair of end-to-end metric and workload but large100k setup_s
// (20%), eco10k turnaround_s (27%) and eco10k sinks_per_s (20%). These
// pairs, and the daemon's sinks_per_s and turnaround_s, are unresolved on
// the VM measured here: a change that moves them by less than 25% cannot be
// told from a slow spell. peak_rss_mb does not follow the host's speed; it
// spreads with the seed (large100k's placements fall into two tree shapes)
// and with where the garbage collector happens to run (paper6).
//
// Three measures keep the run-to-run noise down. Every timed run and set-up
// sample starts from a collected heap. A run starts another repetition only
// if, at the pace so far, it ends within -seconds, so a paper6 pass, about as
// long as a run, runs once and not once or twice as the host's speed varies.
// The open loop's fresh jobs share one size, which narrowed their latency
// quartiles from 0.09-0.38 s to 0.15-0.20 s. At -seconds 20, without the
// second measure, two such sets spread up to 0.22 and their medians moved by
// up to 17%.
//
// # Not done here
//
// The benchtab flags -benchjson, -cachejson, -allocjson and -iojson, with
// BENCH_4 to BENCH_7, measure subsets of what this command measures;
// retiring them, and running this command in CI, are left to a later change,
// since this command changes nothing outside its own directory.
package main
