package server

import (
	"context"
	"sync"
)

// State is a job's lifecycle phase. Transitions are strictly forward:
// queued -> running -> one of {done, failed, cancelled}; a queued job
// cancelled before a runner claims it skips running.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether s is an end state.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job is one synthesis request moving through the server. The immutable
// identity fields are set at submission; everything behind mu is written by
// the runner goroutine and read by status handlers.
type Job struct {
	id     string
	req    *JobRequest
	ctx    context.Context // child of the server context; DELETE cancels it
	cancel context.CancelFunc
	events *eventLog
	done   chan struct{} // closed exactly once, at the terminal transition

	mu          sync.Mutex
	state       State
	errMsg      string
	submittedNs int64       // unit: ns
	startedNs   int64       // unit: ns
	doneNs      int64       // unit: ns
	workers     int         // budget granted by the runner, 0 until running
	res         *FlowResult // the completed flow's artifacts, nil until done
}

// JobStatus is the GET /jobs/{id} body. Result payloads (DEF, report)
// stay behind their own endpoints; status is always small.
type JobStatus struct {
	JobID       string `json:"job_id"`
	State       State  `json:"state"`
	Error       string `json:"error,omitempty"`
	SubmittedNs int64  `json:"submitted_ns"`         // unit: ns
	StartedNs   int64  `json:"started_ns,omitempty"` // unit: ns
	DoneNs      int64  `json:"done_ns,omitempty"`    // unit: ns
	Workers     int    `json:"workers,omitempty"`
	Levels      int    `json:"levels,omitempty"`
	Clusters    []int  `json:"clusters,omitempty"`
	Fingerprint string `json:"fingerprint,omitempty"`
}

// status snapshots the job for the API.
func (j *Job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		JobID:       j.id,
		State:       j.state,
		Error:       j.errMsg,
		SubmittedNs: j.submittedNs,
		StartedNs:   j.startedNs,
		DoneNs:      j.doneNs,
		Workers:     j.workers,
	}
	if j.res != nil {
		st.Levels = j.res.Levels
		st.Clusters = j.res.Clusters
		st.Fingerprint = j.res.Fingerprint
	}
	return st
}

// setRunning marks the claim by a runner and records the worker budget.
func (j *Job) setRunning(atNs int64, workers int) {
	j.mu.Lock()
	j.state = StateRunning
	j.startedNs = atNs
	j.workers = workers
	j.mu.Unlock()
	j.events.appendState(j.id, StateRunning, "", atNs)
}

// finish performs the single terminal transition: record the outcome,
// emit the job_state line, complete the event stream and release waiters.
// It reports whether this call performed the transition — the runner and
// the close-drain path never both own a job, but the guard keeps a stray
// second call from double-releasing the server's pending count.
func (j *Job) finish(state State, errMsg string, atNs int64) bool {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.doneNs = atNs
	j.mu.Unlock()
	j.events.appendState(j.id, state, errMsg, atNs)
	j.events.close()
	close(j.done)
	j.cancel() // release the context subtree; no-op if DELETE got there first
	return true
}

// setResult stores a successful flow's artifacts; called before finish.
func (j *Job) setResult(res *FlowResult) {
	j.mu.Lock()
	j.res = res
	j.mu.Unlock()
}

// artifacts returns the DEF and report bytes if the job completed.
func (j *Job) artifacts() (def, report []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, nil, false
	}
	return j.res.DEF, j.res.Report, true
}
