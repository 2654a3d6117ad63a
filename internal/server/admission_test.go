package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sllt/internal/cache"
	"sllt/internal/obs"
	"sllt/internal/server"
)

// instantFlow finishes every job the moment a runner starts it, so a runner
// reaches the job's terminal transition as early as the queue allows.
func instantFlow(ctx context.Context, req *server.JobRequest, workers int, rec *obs.Recorder, store *cache.Cache) (*server.FlowResult, error) {
	return &server.FlowResult{DEF: []byte("DESIGN stub ;\n"), Fingerprint: "stub-fp"}, nil
}

// TestAdmissionPrecedesDispatch pins the admission order: Submit registers a
// job, counts it pending, logs its queued event and snapshots its 202 body
// before any runner can claim it. Idle runners and an instant flow make the
// runner as fast as it can be, so a job published to the queue first would
// be finished before its admission completed: a negative WaitGroup counter
// panic that kills the daemon, a 202 body reading running or done, or an
// event stream that does not start with queued.
func TestAdmissionPrecedesDispatch(t *testing.T) {
	const rounds, submissions = 5, 2000
	body, err := json.Marshal(&server.JobRequest{LEF: "l", DEF: "d"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		s := server.New(server.Config{QueueDepth: submissions, Runners: 4, Flow: instantFlow})
		ts := httptest.NewServer(s.Handler())
		for i := 0; i < submissions; i++ {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var st server.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("round %d submission %d: decoding %s: %v", r, i, resp.Status, err)
			}
			if resp.StatusCode != http.StatusAccepted || st.State != server.StateQueued {
				t.Fatalf("round %d submission %d: %s with state %q, want 202 queued", r, i, resp.Status, st.State)
			}
			code, events := getBytes(t, ts.URL+"/jobs/"+st.JobID+"/events")
			first, _, _ := bytes.Cut(events, []byte("\n"))
			var ev struct {
				Kind  string       `json:"kind"`
				State server.State `json:"state"`
			}
			if code != http.StatusOK || json.Unmarshal(first, &ev) != nil || ev.Kind != "job_state" || ev.State != server.StateQueued {
				t.Fatalf("round %d job %s: events %d start with %s, want the queued job_state", r, st.JobID, code, first)
			}
		}
		ts.Close()
		s.Close()
	}
}
