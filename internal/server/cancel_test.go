package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"sllt/internal/cache"
	"sllt/internal/obs"
	"sllt/internal/server"
)

// TestCancelRunningJob pins prompt cancellation end to end: DELETE on a
// running job cancels its context, the flow observes it immediately, the
// job lands in state cancelled carrying ctx.Err(), and the progress stream
// terminates with that job_state — a follower is not left hanging.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan struct{}, 1)
	flow := func(ctx context.Context, req *server.JobRequest, workers int, rec *obs.Recorder, store *cache.Cache) (*server.FlowResult, error) {
		started <- struct{}{}
		<-ctx.Done() // a real flow polls at stage boundaries; the stub just waits
		return nil, ctx.Err()
	}
	s := server.New(server.Config{QueueDepth: 2, Runners: 1, Flow: flow})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st server.JobStatus
	if resp := postJob(t, ts.URL, &server.JobRequest{LEF: "l", DEF: "d"}, &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("runner never claimed the job")
	}

	// Attach a live follower before cancelling; it must unblock on its own.
	streamDone := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/events", ts.URL, st.JobID))
		if err != nil {
			streamDone <- nil
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		streamDone <- data
	}()

	delReq, err := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE /jobs/{id} = %d, want 202", resp.StatusCode)
	}

	final := pollUntil(t, ts.URL, st.JobID, func(s server.JobStatus) bool { return s.State == server.StateCancelled })
	if !strings.Contains(final.Error, context.Canceled.Error()) {
		t.Errorf("cancelled job error = %q, want ctx.Err() text", final.Error)
	}

	select {
	case events := <-streamDone:
		if !strings.Contains(string(events), `"state":"cancelled"`) {
			t.Errorf("follower's stream missing the terminal cancelled state:\n%s", events)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event stream did not terminate after cancellation")
	}

	// A finished job refuses its artifacts with 409 — it has none.
	if code, _ := getBytes(t, ts.URL+"/jobs/"+st.JobID+"/def"); code != http.StatusConflict {
		t.Errorf("GET def on cancelled job = %d, want 409", code)
	}
}

// TestCancelQueuedJob pins the other cancellation path: a job cancelled
// before any runner claims it never runs and still reaches a clean
// terminal state.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := server.New(server.Config{QueueDepth: 2, Runners: 1, Flow: gatedFlow(release)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First job wedges the runner; the second stays queued.
	if resp := postJob(t, ts.URL, &server.JobRequest{LEF: "l", DEF: "d"}, nil); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	var queued server.JobStatus
	if resp := postJob(t, ts.URL, &server.JobRequest{LEF: "l", DEF: "d"}, &queued); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}

	if !s.Cancel(queued.JobID) {
		t.Fatalf("Cancel(%s) = false", queued.JobID)
	}
	// Unwedge the runner: it claims the cancelled job and retires it unrun.
	release <- struct{}{}
	final := pollUntil(t, ts.URL, queued.JobID, func(s server.JobStatus) bool { return s.State == server.StateCancelled })
	if final.StartedNs != 0 {
		t.Errorf("queued-then-cancelled job recorded a start: %+v", final)
	}
}

// TestCancelNoGoroutineLeak closes the loop on lifecycle hygiene: a full
// submit → cancel → drain → close cycle must return the process to its
// starting goroutine count. A leaked runner, follower or job context shows
// up here as a stuck count.
func TestCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	flow := func(ctx context.Context, req *server.JobRequest, workers int, rec *obs.Recorder, store *cache.Cache) (*server.FlowResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s := server.New(server.Config{QueueDepth: 4, Runners: 2, Flow: flow})
	ts := httptest.NewServer(s.Handler())

	ids := make([]string, 3)
	for i := range ids {
		var st server.JobStatus
		if resp := postJob(t, ts.URL, &server.JobRequest{LEF: "l", DEF: "d"}, &st); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
		}
		ids[i] = st.JobID
	}
	for _, id := range ids {
		s.Cancel(id)
	}
	for _, id := range ids {
		pollUntil(t, ts.URL, id, func(s server.JobStatus) bool { return s.State == server.StateCancelled })
	}
	ts.Close()
	s.Close()

	// Goroutine teardown is asynchronous; give it a bounded settle window.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRunFlowCancelled drives the production flow, not a stub, with a
// context cancelled before the call: RunFlow must hand the request's
// context to cts.Run, which stops at its first stage boundary.
func TestRunFlowCancelled(t *testing.T) {
	lefSrc, defSrc := fixtureSources(600, 120, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := server.RunFlow(ctx, &server.JobRequest{LEF: lefSrc, DEF: defSrc}, 1, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunFlow with a cancelled context returned %v, want context.Canceled", err)
	}
}
