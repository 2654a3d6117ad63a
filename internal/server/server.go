// Package server is the sllt synthesis daemon's core: an HTTP/JSON job
// service wrapping the cts flow. Jobs enter a bounded FIFO queue (admission
// control sheds load with 429 once it fills), runner goroutines execute them
// under a per-job share of the global worker budget, and every job exposes
// its status, result artifacts and a streaming NDJSON progress feed backed
// by an obs span-sink.
//
// Determinism carries over from the flow: the daemon's DEF output for a
// request is byte-identical to what cmd/slltcts produces offline for the
// same inputs, for any queue depth, runner count or worker budget. Time and
// job identity are injected (obs.Clock, NewJobID) so tests pin exact event
// streams; production uses the wall clock and sequential IDs.
package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"sllt/internal/cache"
	"sllt/internal/obs"
)

// Sentinel errors for admission control; the HTTP layer maps them to 429
// and 503 respectively.
var (
	ErrQueueFull = errors.New("server: job queue full")
	ErrDraining  = errors.New("server: draining, not accepting jobs")
)

// Config sizes and wires a Server. The zero value is usable: depth-8 queue,
// one runner, GOMAXPROCS worker budget, wall clock, sequential job IDs, the
// production flow, and no stage cache.
type Config struct {
	// QueueDepth bounds the jobs waiting for a runner (admission control
	// sheds beyond it). <= 0 selects 8.
	QueueDepth int
	// Runners is the number of concurrent job executors. <= 0 selects 1.
	Runners int
	// Workers is the global goroutine budget split evenly across runners;
	// a job gets max(1, Workers/Runners), further capped by its own
	// options.workers. <= 0 selects GOMAXPROCS.
	Workers int
	// Clock stamps job transitions and feeds each job's recorder. nil
	// selects the wall clock; tests inject obs.NewManualClock for
	// deterministic event streams.
	Clock obs.Clock
	// NewJobID mints job identifiers. nil selects sequential "job-%06d"
	// IDs — no global randomness anywhere in the server.
	NewJobID func() string
	// Cache, when non-nil, is shared by every job: concurrent submissions
	// of the same design converge on one set of stage computations.
	Cache *cache.Cache
	// Flow executes one job. nil selects RunFlow; tests substitute slow or
	// failing flows to exercise the queue.
	Flow FlowFunc
}

// Server owns the queue, the runner pool and the job table. Create with
// New, serve via Handler, stop with Drain (graceful) and/or Close.
type Server struct {
	cfg   Config
	clock obs.Clock
	flow  FlowFunc
	store *cache.Cache

	ctx    context.Context // parent of every job context; Close cancels it
	cancel context.CancelFunc
	queue  chan *Job

	runnersWG sync.WaitGroup // runner goroutines
	pending   sync.WaitGroup // submitted jobs not yet terminal

	mu       sync.Mutex
	jobs     map[string]*Job
	seq      int
	draining bool
	shed     int64 // submissions refused with ErrQueueFull
}

// New builds a server from cfg and starts its runners.
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 8
	}
	if cfg.Runners <= 0 {
		cfg.Runners = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Clock == nil {
		cfg.Clock = obs.NewWallClock()
	}
	if cfg.Flow == nil {
		cfg.Flow = RunFlow
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:    cfg,
		clock:  cfg.Clock,
		flow:   cfg.Flow,
		store:  cfg.Cache,
		ctx:    ctx,
		cancel: cancel,
		queue:  make(chan *Job, cfg.QueueDepth),
		jobs:   make(map[string]*Job),
	}
	for i := 0; i < cfg.Runners; i++ {
		s.runnersWG.Add(1)
		go s.runner()
	}
	return s
}

// Submit admits a job or refuses it: ErrDraining while shutting down,
// ErrQueueFull when the FIFO is at capacity (the load-shedding path — the
// client backs off and retries). It returns the admitted job's status as of
// admission, state queued.
//
// Everything a runner touches is set up before the job is published on the
// queue: the job table entry, the pending count, the queued event and the
// returned snapshot. A runner can claim the job the instant it is sent and
// finish it at once, so any of these done after the send could land after
// the job's terminal transition. Only Submit sends on the queue, and it
// does so holding s.mu, so the free slot seen under the lock is still free
// at the send: a full queue sheds before any set-up and the send never
// blocks the HTTP handler.
func (s *Server) Submit(req *JobRequest) (JobStatus, error) {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if len(s.queue) == cap(s.queue) {
		s.shed++
		return JobStatus{}, ErrQueueFull
	}
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	if s.cfg.NewJobID != nil {
		id = s.cfg.NewJobID()
	}
	ctx, cancel := context.WithCancel(s.ctx)
	j := &Job{
		id:          id,
		req:         req,
		ctx:         ctx,
		cancel:      cancel,
		events:      newEventLog(),
		done:        make(chan struct{}),
		state:       StateQueued,
		submittedNs: now,
	}
	s.jobs[id] = j
	s.pending.Add(1)
	j.events.appendState(id, StateQueued, "", now)
	st := j.status()
	s.queue <- j
	return st, nil
}

// Job looks up a submitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. A running job's flow observes the
// context at its next stage boundary; a queued job is marked cancelled when
// a runner claims it. Returns false for unknown IDs.
func (s *Server) Cancel(id string) bool {
	j, ok := s.Job(id)
	if !ok {
		return false
	}
	j.cancel()
	return true
}

// Stats is the GET /stats body.
type Stats struct {
	QueueDepth int   `json:"queue_depth"` // jobs currently waiting
	QueueCap   int   `json:"queue_cap"`
	Jobs       int   `json:"jobs"` // all jobs ever admitted
	Shed       int64 `json:"shed"` // submissions refused with 429
	Draining   bool  `json:"draining"`
}

// Stats snapshots the server's load counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		QueueDepth: len(s.queue),
		QueueCap:   cap(s.queue),
		Jobs:       len(s.jobs),
		Shed:       s.shed,
		Draining:   s.draining,
	}
}

// Drain stops admitting jobs and waits for every admitted job to reach a
// terminal state, or for ctx to expire. The SIGTERM path in cmd/slltd is
// Drain with a deadline, then Close.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels all job contexts, stops the runners and marks any jobs
// still queued as cancelled. Safe after Drain; safe to call exactly once.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	s.runnersWG.Wait()
	for {
		select {
		case j := <-s.queue:
			s.finishJob(j, StateCancelled, context.Canceled.Error())
		default:
			return
		}
	}
}

// runner is one executor: claim from the FIFO, run, repeat until the
// server context ends.
func (s *Server) runner() {
	defer s.runnersWG.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// jobWorkers computes a job's goroutine budget: an even share of the global
// budget, tightened by the request's own cap.
func (s *Server) jobWorkers(req *JobRequest) int {
	w := s.cfg.Workers / s.cfg.Runners
	if w < 1 {
		w = 1
	}
	if rw := req.Options.Workers; rw > 0 && rw < w {
		w = rw
	}
	return w
}

// runJob executes one claimed job and drives its terminal transition.
func (s *Server) runJob(j *Job) {
	if err := j.ctx.Err(); err != nil {
		// Cancelled (or server-closed) while queued: never ran.
		s.finishJob(j, StateCancelled, err.Error())
		return
	}
	workers := s.jobWorkers(j.req)
	j.setRunning(s.clock.Now(), workers)
	rec := obs.NewWithSink(s.clock, jobSink{log: j.events})
	res, err := s.flow(j.ctx, j.req, workers, rec, s.store)
	switch {
	case err == nil:
		j.setResult(res)
		s.finishJob(j, StateDone, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.finishJob(j, StateCancelled, err.Error())
	default:
		s.finishJob(j, StateFailed, err.Error())
	}
}

// finishJob applies a terminal transition and releases its pending slot.
func (s *Server) finishJob(j *Job, state State, errMsg string) {
	if j.finish(state, errMsg, s.clock.Now()) {
		s.pending.Done()
	}
}
