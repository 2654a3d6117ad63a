package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"sllt/internal/cache"
	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/obs"
	"sllt/internal/server"
	"sllt/internal/timing"
)

// Daemon workload shape.
const (
	jobQueue      = 8       // server queue depth
	jobRunners    = 2       // server runners; each job gets workers/jobRunners goroutines
	jobClients    = 2       // closed-loop clients, and the open loop's two connections
	refJobs       = 8       // first distinct designs, checked against the offline pipeline
	openPoolBase  = 1 << 20 // index of the open loop's first fresh design, past every closed-loop one
	repeatEvery   = 2       // every second job, half of all, resubmits a completed design
	drainDeadline = 60 * time.Second
)

// jobRec is one daemon job as its client saw it. Times are on the clock the
// server stamps jobs with.
type jobRec struct {
	design  int
	sinks   int
	repeat  bool
	dueNs   int64 // open loop: when the job was scheduled to be sent
	refused bool  // answered 429 or 503
	status  server.JobStatus
	sha     string // of the returned DEF
	buffers int    // from the job's run report
	// clusterHits and clusterLookups are the job's cluster-build cache
	// traffic, from its run report.
	clusterHits, clusterLookups int64
}

// jobDesign is the j-th distinct daemon design: a Table 4 shape (its
// instance-to-flip-flop ratio and utilization) scaled to n sinks, placed
// from the run's seed.
func (e *env) jobDesign(j, n int) *design.Design {
	shapes := designgen.Table4()
	sh := shapes[j%len(shapes)]
	spec := designgen.Spec{Name: fmt.Sprintf("job%07d_%s", j, sh.Name), FFs: n, Insts: n * sh.Insts / sh.FFs, Util: sh.Util}
	return designgen.Generate(spec, e.seed*1_000_003+int64(j))
}

// ladderSinks is the sink count of the closed loop's j-th design: an
// eight-step ladder over [jobMin, jobMax] that every client's eight
// consecutive designs cover once, in the same order for every client.
func (e *env) ladderSinks(j int) int {
	return e.sizes.jobMin + (e.sizes.jobMax-e.sizes.jobMin)*((j/jobClients*3)%8)/7
}

// openSinks is the sink count of every fresh open-loop design, the middle
// of the ladder: over the whole ladder the latency median would fall
// between two rungs and jump between them from run to run.
func (e *env) openSinks() int { return (e.sizes.jobMin + e.sizes.jobMax) / 2 }

func jobRequest(lef string, d *design.Design) ([]byte, error) {
	return json.Marshal(server.JobRequest{LEF: lef, DEF: designgen.DEF(d).WriteDEF()})
}

// daemonClient is the load generator's HTTP side.
type daemonClient struct {
	hc   *http.Client
	base string
}

func (c *daemonClient) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// submit posts a job; a refusal (429, 503) is not an error but sets
// rec.refused.
func (c *daemonClient) submit(body []byte, rec *jobRec) (string, error) {
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		rec.refused = true
		return "", nil
	default:
		return "", fmt.Errorf("POST /jobs: %s: %s", resp.Status, data)
	}
	var st server.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return "", err
	}
	return st.JobID, nil
}

// finish follows a job's event stream until it ends, then fetches the
// job's status, DEF and run report, as a client collecting results would.
// Only the DEF's digest is kept.
func (c *daemonClient) finish(id string, rec *jobRec) error {
	if _, err := c.get("/jobs/" + id + "/events"); err != nil {
		return err
	}
	data, err := c.get("/jobs/" + id)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &rec.status); err != nil {
		return err
	}
	if rec.status.State != server.StateDone {
		return fmt.Errorf("job %s (design %d) ended %s: %s", id, rec.design, rec.status.State, rec.status.Error)
	}
	def, err := c.get("/jobs/" + id + "/def")
	if err != nil {
		return err
	}
	rec.sha = digest(def)
	if data, err = c.get("/jobs/" + id + "/report"); err != nil {
		return err
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return err
	}
	rec.buffers = rep.Totals.Buffers
	if rep.Cache != nil {
		for _, st := range rep.Cache.Stages {
			if st.Stage == clusterStage {
				rec.clusterHits, rec.clusterLookups = st.Hits, st.Hits+st.Misses
			}
		}
	}
	return nil
}

// startServer brings up a daemon on a loopback listener and returns once
// /healthz answers 200, with the time that took.
func startServer(cfg server.Config) (*server.Server, *httptest.Server, float64, error) {
	start := time.Now()
	srv := server.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(hs.URL + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /healthz: %s", resp.Status)
		}
	}
	if err != nil {
		hs.Close()
		srv.Close()
		return nil, nil, 0, err
	}
	return srv, hs, time.Since(start).Seconds(), nil
}

// daemon is the daemon workload: the HTTP job service under a closed loop
// of two clients, then an open loop at a fixed rate.
func (e *env) daemon() error {
	if err := writeLEF(e.dir); err != nil {
		return err
	}
	lef := lefText()
	opts := flowOptions()

	// The closed loop's fresh designs: a fixed amount of work, about
	// half of the run on a two-core machine, so every run of a seed
	// submits the same jobs. The first refJobs run offline first: their DEFs
	// are what the daemon must reproduce byte for byte.
	n := e.seconds * 4
	if n < refJobs {
		n = refJobs
	}
	pool := make([][]byte, n)
	sinks := make([]int, n)
	var refs []input
	var refSHAs []string
	var reports []*timing.Report
	for j := range pool {
		d := e.jobDesign(j, e.ladderSinks(j))
		body, err := jobRequest(lef, d)
		if err != nil {
			return err
		}
		pool[j], sinks[j] = body, d.NumFFs()
		if j >= refJobs {
			continue
		}
		in, err := writeInput(e.dir, d.Name+".def", d)
		if err != nil {
			return err
		}
		r, c, err := e.flow(in, opts, nil)
		if err != nil {
			return err
		}
		refs = append(refs, in)
		refSHAs = append(refSHAs, c.sha)
		reports = append(reports, r.res.Report)
	}

	clk := obs.NewWallClock()
	store, err := cache.New(cache.Config{})
	if err != nil {
		return err
	}
	cfg := server.Config{QueueDepth: jobQueue, Runners: jobRunners, Workers: workers, Clock: clk, Cache: store}
	// Set-up is a server start, server.New to the first /healthz 200, plus
	// the ingest every job begins with, over the reference designs: a start
	// alone takes about a millisecond, too little to time against the
	// host's jitter.
	var setups []float64
	var srv *server.Server
	var hs *httptest.Server
	for i := 0; i < e.sizes.setupReps; i++ {
		runtime.GC()
		s, h, t, err := startServer(cfg)
		if err != nil {
			return err
		}
		ingest, err := e.setupSamples(refs, 1)
		if err != nil {
			return err
		}
		setups = append(setups, t+ingest[0])
		if i < e.sizes.setupReps-1 {
			h.Close()
			s.Close()
		} else {
			srv, hs = s, h
		}
	}
	tr := &http.Transport{MaxConnsPerHost: jobClients, MaxIdleConnsPerHost: jobClients}
	c := &daemonClient{hc: &http.Client{Transport: tr}, base: hs.URL}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), drainDeadline)
		defer cancel()
		srv.Drain(ctx) // every job already ended unless a client failed; Close cancels the rest
		srv.Close()
		hs.Close()
		tr.CloseIdleConnections()
	}()

	dur := time.Duration(e.seconds) * time.Second
	var closed, open []jobRec
	var closedS float64
	var lags []float64
	loops := func() error {
		var err error
		if closed, closedS, err = e.closedLoop(c, pool, sinks); err != nil {
			return err
		}
		open, lags, err = e.openLoop(c, clk, lef, pool[:refJobs], sinks[:refJobs], dur/2)
		return err
	}
	var rt *goStats
	if e.trace {
		rt = &goStats{}
	}
	if err := rt.measure(loops); err != nil {
		return err
	}
	e.notePeak()
	var solo []jobRec
	if e.trace {
		// A run report's cache section is the change in the shared cache's
		// counters while the job ran, so only a job running alone reads its
		// own hits: the warm hit ratio comes from repeats sent one at a time.
		if solo, err = soloRepeats(c, pool[:refJobs], sinks[:refJobs]); err != nil {
			return err
		}
	}
	all := append(append(append([]jobRec(nil), closed...), open...), solo...)
	e.res.Attempted += len(all)
	if err := e.checkJobs(c, all, refs, refSHAs); err != nil {
		return err
	}

	// Open-loop jobs are timed from when they were due, so a stalled
	// generator's delay counts against the daemon. Fresh and repeated jobs
	// are two populations an order of magnitude apart; a percentile over
	// both would fall between them.
	var lat, repeatLat, ingest, wait []float64
	for _, j := range open {
		if j.refused {
			continue
		}
		t := float64(j.status.DoneNs-j.dueNs) / 1e9
		if j.repeat {
			repeatLat = append(repeatLat, t)
		} else {
			lat = append(lat, t)
		}
		ingest = append(ingest, float64(j.status.SubmittedNs-j.dueNs)/1e9)
		wait = append(wait, float64(j.status.StartedNs-j.status.SubmittedNs)/1e9)
	}
	var runs, freshRun, repeatRun []float64
	for _, j := range all {
		if j.refused {
			continue
		}
		t := float64(j.status.DoneNs-j.status.StartedNs) / 1e9
		runs = append(runs, t)
		if j.repeat {
			repeatRun = append(repeatRun, t)
		} else {
			freshRun = append(freshRun, t)
		}
	}

	if e.trace {
		l, err := e.tracedPass(refs, opts, nil)
		if err != nil {
			return err
		}
		rt.emit(e.res)
		l.emit(e.res)
		var hits, lookups int64
		for _, j := range solo {
			hits += j.clusterHits
			lookups += j.clusterLookups
		}
		st := store.Stats()
		total := st.Total()
		e.res.add("cache.warm.cluster_hit_ratio", "ratio", ratio(float64(hits), float64(lookups)))
		e.res.add("cache.partition_hit_ratio", "ratio", st.Stages[partitionStage].HitRate())
		e.res.add("cache.warm_speedup", "ratio", ratio(median(freshRun), median(repeatRun)))
		e.res.add("cache.stored_mb", "MB", float64(total.BytesWritten)/1e6)
		e.res.add("cache.disk_errors", "count", float64(total.DiskErrors))
		idle(e.res, "cache.eco.cluster_hit_ratio", "cache.eco_speedup")
		openTotal := sum(lat) + sum(repeatLat)
		e.res.add("server.ingest_share", "ratio", ratio(sum(ingest), openTotal))
		e.res.add("server.queue_wait_share", "ratio", ratio(sum(wait), openTotal))
		e.res.add("server.cache_hit_ratio", "ratio", total.HitRate())
		return nil
	}
	var done, doneSinks float64
	for _, j := range closed {
		if !j.refused {
			done++
			doneSinks += float64(j.sinks)
		}
	}
	e.res.addSamples("setup_s", "s", setups)
	e.res.addSamples("turnaround_s", "s", lat)
	e.res.add("sinks_per_s", "sinks/s", doneSinks/closedS)
	e.res.add("job_p90_s", "s", percentile(lat, 0.9))
	e.res.addSamples("repeat_turnaround_s", "s", repeatLat)
	e.res.add("capacity_jobs_per_s", "1/s", done/closedS)
	e.res.add("generator.lag_p90_s", "s", percentile(lags, 0.9))
	e.res.addSamples("server.queue_wait_s", "s", wait)
	e.res.addSamples("server.run_s", "s", runs)
	addQoR(e.res, reports, opts.Cons)
	return nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// closedLoop runs jobClients clients that each submit a job, wait for it
// and collect its results before sending the next. Client k works through
// the fresh designs k, k+jobClients, k+2·jobClients, … of pool, and every
// second job resubmits its previous design, so which designs repeat never
// depends on timing. It returns the jobs and the loop's wall time in
// seconds.
func (e *env) closedLoop(c *daemonClient, pool [][]byte, sinks []int) ([]jobRec, float64, error) {
	recs := make([][]jobRec, jobClients)
	errs := make([]error, jobClients)
	start := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < jobClients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			last, next := -1, k
			for p := 0; ; p++ {
				rec := jobRec{design: last, repeat: true}
				if p%repeatEvery != repeatEvery-1 || last < 0 {
					if next >= len(pool) {
						return
					}
					rec = jobRec{design: next}
					next += jobClients
				}
				rec.sinks = sinks[rec.design]
				id, err := c.submit(pool[rec.design], &rec)
				if err == nil && !rec.refused {
					err = c.finish(id, &rec)
				}
				if err != nil {
					errs[k] = err
					return
				}
				last = rec.design
				recs[k] = append(recs[k], rec)
			}
		}(k)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var all []jobRec
	for k := range recs {
		if errs[k] != nil {
			return nil, 0, errs[k]
		}
		all = append(all, recs[k]...)
	}
	return all, elapsed, nil
}

// openLoop sends jobs every 1/sizes.jobRate seconds for dur, whether or
// not earlier ones have finished, from one generator connection, while a
// collector follows each job to the end on the other. The even schedule
// (not Poisson) keeps the job count and the offered load the same for
// every seed, so latency moves with the daemon, not with arrival bursts.
// Every second job resubmits one of the reference designs the closed loop
// completed; the others are fresh designs of openSinks sinks, all built
// before the first send so the generator's own work stays out of the
// daemon's way. It returns the jobs and how late each send ran.
func (e *env) openLoop(c *daemonClient, clk obs.Clock, lef string, refBodies [][]byte, refSinks []int, dur time.Duration) ([]jobRec, []float64, error) {
	recs := make([]jobRec, int(dur.Seconds()*e.sizes.jobRate))
	bodies := make([][]byte, len(recs))
	for i := range recs {
		if i%repeatEvery == repeatEvery-1 {
			j := (i / repeatEvery) % len(refBodies)
			recs[i], bodies[i] = jobRec{design: j, sinks: refSinks[j], repeat: true}, refBodies[j]
			continue
		}
		d := e.jobDesign(openPoolBase+i, e.openSinks())
		body, err := jobRequest(lef, d)
		if err != nil {
			return nil, nil, err
		}
		recs[i], bodies[i] = jobRec{design: openPoolBase + i, sinks: d.NumFFs()}, body
	}
	type sent struct {
		rec jobRec
		id  string
	}
	// Sized to the number of sends, so the generator never waits for the
	// collector and keeps its schedule.
	ch := make(chan sent, len(recs))
	lags := make([]float64, 0, len(recs))
	var genErr error
	go func() {
		defer close(ch)
		base := clk.Now()
		for i, rec := range recs {
			rec.dueNs = base + int64(float64(i)/e.sizes.jobRate*1e9)
			if wait := rec.dueNs - clk.Now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			lags = append(lags, float64(clk.Now()-rec.dueNs)/1e9)
			id, err := c.submit(bodies[i], &rec)
			if err != nil {
				genErr = err
				return
			}
			ch <- sent{rec, id}
		}
	}()
	var done []jobRec
	var err error
	for s := range ch {
		if err == nil && !s.rec.refused {
			err = c.finish(s.id, &s.rec)
		}
		done = append(done, s.rec)
	}
	if genErr != nil {
		return nil, nil, genErr
	}
	return done, lags, err
}

// soloRepeats resubmits each reference design, waiting for one job to end
// before sending the next.
func soloRepeats(c *daemonClient, bodies [][]byte, sinks []int) ([]jobRec, error) {
	var recs []jobRec
	for j, body := range bodies {
		rec := jobRec{design: j, sinks: sinks[j], repeat: true}
		id, err := c.submit(body, &rec)
		if err == nil && !rec.refused {
			err = c.finish(id, &rec)
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// checkJobs counts refused jobs as failures and checks every DEF the daemon
// returned: a reference design's must equal the offline pipeline's byte for
// byte, a repeated design's must equal its first, and the first DEF of each
// design, fetched again, must connect every sink exactly once.
func (e *env) checkJobs(c *daemonClient, jobs []jobRec, refs []input, refSHAs []string) error {
	first := map[int]string{}
	for _, j := range jobs {
		if j.refused {
			e.res.fail(fmt.Errorf("job for design %d refused", j.design))
			continue
		}
		if j.design < len(refs) && j.sha != refSHAs[j.design] {
			return fmt.Errorf("daemon DEF of %s differs from the offline pipeline's", refs[j.design].name)
		}
		if sha, ok := first[j.design]; ok {
			if sha != j.sha {
				return fmt.Errorf("daemon returned two different DEFs for design %d", j.design)
			}
			continue
		}
		first[j.design] = j.sha
		def, err := c.get("/jobs/" + j.status.JobID + "/def")
		if err != nil {
			return err
		}
		if err := checkDEF(def, e.jobDesign(j.design, j.sinks), j.buffers); err != nil {
			return fmt.Errorf("daemon DEF of design %d: %w", j.design, err)
		}
	}
	return nil
}
