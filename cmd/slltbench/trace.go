package main

import (
	"fmt"
	"math"
	"time"

	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/geom"
	"sllt/internal/obs"
	"sllt/internal/parallel"
	"sllt/internal/partition"
	"sllt/internal/timing"
)

// layers accumulates the per-layer numbers of traced runs over a
// workload's designs: times and counts add up, ratios are taken of the
// sums.
type layers struct {
	parseDEF, defMB, from, export, outMB, analyze float64
	partition, clusters, topNet, timing, unattr   float64
	clusterBusy, clusterSlots                     float64 // Σ cluster task spans; Σ clusters spans × workers
	levels                                        int
	kern                                          obs.KernelSnapshot
	traced, untraced                              float64 // s, cts.Run with and without a recorder
	replay                                        replay
	reports                                       []*timing.Report
	shas                                          []string // exported DEF digests, one per input
	cons                                          cts.Constraints
}

// tracedPass runs each input untraced and then, back to back, with
// obs.New(nil) attached; the recorder must not change a byte of the output.
// It reads the traced run's span tree and kernel counters, re-times
// timing.Analyze, and replays level 0's partition, failing if the replay
// disagrees with the traced report. rt, if not nil, sums the Go runtime's
// work over the untraced runs.
func (e *env) tracedPass(ins []input, opts cts.Options, rt *goStats) (*layers, error) {
	l := &layers{cons: opts.Cons}
	for _, in := range ins {
		u, uc, err := e.flow(in, opts, rt)
		if err != nil {
			return nil, err
		}
		o := opts
		o.Obs = obs.New(nil)
		r, c, err := e.flow(in, o, nil)
		if err != nil {
			return nil, err
		}
		if c.sha != uc.sha {
			return nil, fmt.Errorf("%s: traced run exported a different DEF than the untraced run", in.name)
		}
		rep := o.Obs.Snapshot()
		if len(rep.Levels) == 0 {
			return nil, fmt.Errorf("%s: traced report has no levels", in.name)
		}
		rp := replayLevel0(r.d, opts)
		if err := rp.crossCheck(rep.Levels[0]); err != nil {
			return nil, fmt.Errorf("%s: level-0 replay: %w", in.name, err)
		}
		l.replay.add(rp)
		l.parseDEF += r.parseDEF
		l.defMB += float64(in.defBytes) / 1e6
		l.from += r.fromLEFDEF
		l.export += r.export
		l.outMB += float64(r.outBytes) / 1e6
		l.analyze += c.analyze
		l.traced += r.cts
		l.untraced += u.cts
		l.levels += r.res.Levels
		l.reports = append(l.reports, r.res.Report)
		l.shas = append(l.shas, c.sha)
		l.addSpans(rep, r.cts, parallel.Clamp(opts.Workers))
		l.kern = addKernel(l.kern, o.Obs.Kernel().Snapshot())
	}
	return l, nil
}

// addSpans attributes one traced cts.Run's wall time to the flow's stage
// spans; whatever no stage span covers is unattributed.
func (l *layers) addSpans(rep *obs.Report, ctsWall float64, workers int) {
	var part, clus, top, tim, busy float64
	rep.Span.Walk(func(_ int, s *obs.SpanJSON) {
		d := float64(s.DurNs) / 1e9
		switch {
		case s.Name == "partition":
			part += d
		case s.Name == "clusters":
			clus += d
		case s.Name == "cluster" && s.Task >= 0:
			busy += d
		case s.Name == "top_net":
			top += d
		case s.Name == "timing":
			tim += d
		}
	})
	l.partition += part
	l.clusters += clus
	l.topNet += top
	l.timing += tim
	l.unattr += ctsWall - (part + clus + top + tim)
	l.clusterBusy += busy
	l.clusterSlots += clus * float64(workers)
}

// addKernel returns a+b, as a-(0-b).
func addKernel(a, b obs.KernelSnapshot) obs.KernelSnapshot {
	var zero obs.KernelSnapshot
	return a.Sub(zero.Sub(b))
}

// emit reports the accumulated per-layer metrics, QoR included.
func (l *layers) emit(r *result) {
	r.add("lefdef.parse_def_s", "s", l.parseDEF)
	r.add("lefdef.parse_def_mb_per_s", "MB/s", ratio(l.defMB, l.parseDEF))
	r.add("design.from_lefdef_s", "s", l.from)
	r.add("cts.export_def_s", "s", l.export)
	r.add("cts.export_def_mb_per_s", "MB/s", ratio(l.outMB, l.export))
	l.replay.emit(r)
	r.add("cts.partition_s", "s", l.partition)
	r.add("cts.clusters_s", "s", l.clusters)
	r.add("cts.top_net_s", "s", l.topNet)
	r.add("cts.timing_s", "s", l.timing)
	r.add("cts.unattributed_s", "s", l.unattr)
	r.add("cts.levels", "count", float64(l.levels))
	r.add("parallel.cluster_efficiency", "ratio", ratio(l.clusterBusy, l.clusterSlots))
	r.add("dme.merges", "count", float64(l.kern.DMEMerges))
	r.add("dme.snakes", "count", float64(l.kern.DMESnakes))
	r.add("rsmt.steiner_inserts", "count", float64(l.kern.SteinerInserts))
	r.add("buffering.inserted", "count", float64(l.kern.BufInserted))
	r.add("buffering.decoupled", "count", float64(l.kern.BufDecoupled))
	r.add("grid.queries", "count", float64(l.kern.GridQueries))
	r.add("grid.ring_steps_per_query", "ratio", ratio(float64(l.kern.GridRingSteps), float64(l.kern.GridQueries)))
	r.add("timing.analyze_s", "s", l.analyze)
	r.add("obs.overhead_ratio", "ratio", ratio(l.traced, l.untraced)-1)
	addQoR(r, l.reports, l.cons)
}

// replay is level 0's partition replayed through the partition package's
// public calls — KMeansPK, SilhouetteP, BalancedAssignK, RefineSA — with
// the flow's own k, seeds and annealing budget, each call timed. The
// k-means restarts run one after another, so kmeans and silhouette are busy
// time, not the flow's wall time.
type replay struct {
	kmeans, silhouette, assign, sa float64 // s
	kern                           obs.KernelSnapshot
	method                         string
	clusters                       int     // non-empty clusters after refinement
	maxSize                        int     // largest cluster after refinement
	distUm                         float64 // Σ sink to assigned k-means center, balanced assignment
	saStats                        partition.SAStats
}

// Constants of cts.bestClustering, mirrored here; the cross-check against
// the traced report catches any drift.
const (
	kmeansIters      = 24
	restartSeedPitch = 1009
	silhouetteMax    = 2500
)

// replayLevel0 mirrors cts.partitionLevel and cts.bestClustering at level 0,
// whose nodes are the design's sinks.
func replayLevel0(d *design.Design, opts cts.Options) replay {
	var rp replay
	sinks := d.Net().Sinks
	pts := make([]geom.Point, len(sinks))
	caps := make([]float64, len(sinks))
	var capTotal float64
	for i, s := range sinks {
		pts[i], caps[i] = s.Loc, s.Cap
		capTotal += s.Cap
	}
	k := len(pts)/opts.Cons.MaxFanout + 1
	if byCap := int(capTotal/(opts.Cons.MaxCap*0.5)) + 1; byCap > k {
		k = byCap
	}
	if k > len(pts) {
		k = len(pts)
	}
	var kern obs.KernelCounters
	restarts := opts.KMeansRestarts
	if restarts < 1 {
		restarts = 1
	}
	var centers []geom.Point
	if restarts == 1 {
		start := time.Now()
		centers, _ = partition.KMeansPK(pts, k, kmeansIters, opts.Seed, opts.Workers, &kern)
		rp.kmeans = time.Since(start).Seconds()
	} else {
		inner := parallel.Clamp(opts.Workers) / restarts
		if inner < 1 {
			inner = 1
		}
		best := math.Inf(-1)
		for r := 0; r < restarts; r++ {
			start := time.Now()
			c, a := partition.KMeansPK(pts, k, kmeansIters, opts.Seed+int64(r)*restartSeedPitch, inner, &kern)
			mid := time.Now()
			sp, sa := silhouetteSample(pts, a, silhouetteMax)
			score := partition.SilhouetteP(sp, sa, k, inner)
			rp.kmeans += mid.Sub(start).Seconds()
			rp.silhouette += time.Since(mid).Seconds()
			if r == 0 || score > best {
				centers, best = c, score
			}
		}
	}
	start := time.Now()
	assign, method := partition.BalancedAssignK(pts, centers, opts.Cons.MaxFanout, &kern)
	rp.assign = time.Since(start).Seconds()
	rp.method = method
	for i, a := range assign {
		rp.distUm += pts[i].Dist(centers[a])
	}
	if opts.UseSA {
		sa := partition.DefaultSAOptions(opts.Seed)
		sa.Iters = opts.SAIters
		if min := 2 * len(pts); sa.Iters < min {
			sa.Iters = min
		}
		sa.CPerUm = opts.Tech.CPerUm
		sa.MaxCap = opts.Cons.MaxCap
		sa.MaxWL = opts.Cons.MaxWL
		sa.MaxFanout = opts.Cons.MaxFanout
		sa.Stats = &rp.saStats
		sa.Kernel = &kern
		start := time.Now()
		assign = partition.RefineSA(pts, caps, k, assign, sa)
		rp.sa = time.Since(start).Seconds()
	}
	size := make([]int, k)
	for _, a := range assign {
		size[a]++
	}
	for _, s := range size {
		if s > 0 {
			rp.clusters++
		}
		if s > rp.maxSize {
			rp.maxSize = s
		}
	}
	rp.kern = kern.Snapshot()
	return rp
}

// silhouetteSample is cts.silhouetteSample: a deterministic stride sample.
func silhouetteSample(pts []geom.Point, assign []int, max int) ([]geom.Point, []int) {
	if len(pts) <= max {
		return pts, assign
	}
	stride := (len(pts) + max - 1) / max
	var sp []geom.Point
	var sa []int
	for i := 0; i < len(pts); i += stride {
		sp = append(sp, pts[i])
		sa = append(sa, assign[i])
	}
	return sp, sa
}

// crossCheck fails unless the replay did what the traced flow reported for
// level 0, so the per-layer split can never drift from cts.Run.
func (rp replay) crossCheck(q obs.LevelQoR) error {
	switch {
	case rp.clusters != q.Clusters:
		return fmt.Errorf("%d clusters, flow reported %d", rp.clusters, q.Clusters)
	case rp.method != q.AssignMethod:
		return fmt.Errorf("assignment %q, flow reported %q", rp.method, q.AssignMethod)
	case int(rp.kern.KMeansIters) != q.KMeansIters:
		return fmt.Errorf("%d k-means iterations, flow reported %d", rp.kern.KMeansIters, q.KMeansIters)
	case rp.saStats.Proposed != q.SAProposed || rp.saStats.Accepted != q.SAAccepted:
		return fmt.Errorf("SA %d/%d proposed/accepted, flow reported %d/%d",
			rp.saStats.Proposed, rp.saStats.Accepted, q.SAProposed, q.SAAccepted)
	}
	return nil
}

// add accumulates another design's replay.
func (rp *replay) add(o replay) {
	rp.kmeans += o.kmeans
	rp.silhouette += o.silhouette
	rp.assign += o.assign
	rp.sa += o.sa
	rp.kern = addKernel(rp.kern, o.kern)
	rp.saStats.Proposed += o.saStats.Proposed
	rp.saStats.Accepted += o.saStats.Accepted
	rp.distUm += o.distUm
	if o.maxSize > rp.maxSize {
		rp.maxSize = o.maxSize
	}
}

func (rp *replay) emit(r *result) {
	r.add("partition.kmeans_s", "s", rp.kmeans)
	r.add("partition.kmeans_iters", "count", float64(rp.kern.KMeansIters))
	r.add("partition.silhouette_s", "s", rp.silhouette)
	r.add("partition.assign_s", "s", rp.assign)
	r.add("partition.mcf_augments", "count", float64(rp.kern.MCFAugments))
	r.add("partition.sa_s", "s", rp.sa)
	r.add("partition.sa_proposed", "count", float64(rp.saStats.Proposed))
	r.add("partition.sa_accept_ratio", "ratio", ratio(float64(rp.saStats.Accepted), float64(rp.saStats.Proposed)))
	r.add("partition.max_cluster_size", "count", float64(rp.maxSize))
	r.add("partition.assign_dist_mm", "mm", rp.distUm/1000)
}
