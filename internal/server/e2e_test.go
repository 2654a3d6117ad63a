package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/lefdef"
	"sllt/internal/liberty"
	"sllt/internal/server"
	"sllt/internal/tree"
)

// fixtureSources renders a generated design to the same LEF/DEF text a real
// flow would read from disk — the daemon's wire payload and the offline
// reference parse identical bytes.
func fixtureSources(insts, ffs int, seed int64) (lefSrc, defSrc string) {
	d := designgen.Generate(designgen.Spec{Name: "srv", Insts: insts, FFs: ffs, Util: 0.6}, seed)
	lefSrc = designgen.LEF(designgen.BufferMacros(liberty.Default())).WriteLEF()
	defSrc = designgen.DEF(d).WriteDEF()
	return lefSrc, defSrc
}

// offlineReference runs the cmd/slltcts pipeline in-process: stream-parse,
// synthesize, stream-export. Its bytes are the truth the daemon must match.
func offlineReference(t *testing.T, lefSrc, defSrc string) (defOut []byte, fp string) {
	t.Helper()
	lef, err := lefdef.ParseLEFReader(strings.NewReader(lefSrc))
	if err != nil {
		t.Fatal(err)
	}
	df, err := lefdef.ParseDEFReader(strings.NewReader(defSrc))
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.FromLEFDEF(lef, df, "")
	if err != nil {
		t.Fatal(err)
	}
	opts := cts.DefaultOptions()
	opts.Workers = 1
	res, err := cts.Run(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cts.ExportDEFWriter(&buf, d, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tree.Fingerprint(res.Tree)
}

// postJob submits a request and decodes the response body into out (a
// *server.JobStatus for 202, a map for error bodies).
func postJob(t *testing.T, baseURL string, req *server.JobRequest, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", resp.Status, err)
		}
	}
	return resp
}

// getJSON fetches path and decodes its JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", resp.Status, err)
		}
	}
	return resp.StatusCode
}

// pollUntil polls a job's status until pred accepts it; a terminal state
// pred rejects is fatal, as is the deadline.
func pollUntil(t *testing.T, baseURL, id string, pred func(server.JobStatus) bool) server.JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		var st server.JobStatus
		if code := getJSON(t, baseURL+"/jobs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		if pred(st) {
			return st
		}
		switch st.State {
		case server.StateDone, server.StateFailed, server.StateCancelled:
			t.Fatalf("job %s reached unexpected terminal state %s (error %q)", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getBytes(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// TestE2EByteIdentity is the service contract end to end: submit a design
// over HTTP, follow it through the queue, and require the daemon's DEF and
// tree fingerprint to be byte-identical to the offline slltcts pipeline on
// the same input text. The progress stream and the versioned run report
// must both be served for the finished job.
func TestE2EByteIdentity(t *testing.T) {
	lefSrc, defSrc := fixtureSources(400, 80, 11)
	wantDEF, wantFP := offlineReference(t, lefSrc, defSrc)

	s := server.New(server.Config{QueueDepth: 4, Runners: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st server.JobStatus
	resp := postJob(t, ts.URL, &server.JobRequest{LEF: lefSrc, DEF: defSrc}, &st)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	if st.JobID == "" || st.State != server.StateQueued {
		t.Fatalf("submission status = %+v, want queued with an ID", st)
	}

	final := pollUntil(t, ts.URL, st.JobID, func(s server.JobStatus) bool { return s.State == server.StateDone })
	if final.Fingerprint != wantFP {
		t.Errorf("daemon fingerprint %s != offline %s", final.Fingerprint, wantFP)
	}
	if final.Levels == 0 || len(final.Clusters) == 0 {
		t.Errorf("done status missing tree shape: %+v", final)
	}

	code, gotDEF := getBytes(t, ts.URL+"/jobs/"+st.JobID+"/def")
	if code != http.StatusOK {
		t.Fatalf("GET def = %d, want 200", code)
	}
	if !bytes.Equal(gotDEF, wantDEF) {
		t.Errorf("daemon DEF (%d bytes) differs from offline slltcts DEF (%d bytes)", len(gotDEF), len(wantDEF))
	}

	code, report := getBytes(t, ts.URL+"/jobs/"+st.JobID+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report = %d, want 200", code)
	}
	if !bytes.Contains(report, []byte("sllt.obs.report/v1.1")) {
		t.Errorf("report does not carry the versioned schema marker")
	}
	if out := os.Getenv("SLLTD_REPORT_OUT"); out != "" {
		if err := os.WriteFile(out, report, 0o644); err != nil {
			t.Fatalf("SLLTD_REPORT_OUT: %v", err)
		}
	}

	// The finished job's progress stream replays in full and terminates.
	code, events := getBytes(t, ts.URL+"/jobs/"+st.JobID+"/events")
	if code != http.StatusOK {
		t.Fatalf("GET events = %d, want 200", code)
	}
	lines := strings.Split(strings.TrimSpace(string(events)), "\n")
	if len(lines) < 5 {
		t.Fatalf("progress stream has %d lines, want the span/level/state feed", len(lines))
	}
	for _, want := range []string{`"state":"queued"`, `"state":"running"`, `"state":"done"`, `"kind":"span_begin"`, `"kind":"level"`} {
		if !strings.Contains(string(events), want) {
			t.Errorf("progress stream missing %s", want)
		}
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, `"state":"done"`) {
		t.Errorf("stream's final line is %s, want the terminal job_state", last)
	}

	// Artifact endpoints refuse unfinished/unknown jobs cleanly.
	if code, _ := getBytes(t, ts.URL+"/jobs/nope/def"); code != http.StatusNotFound {
		t.Errorf("GET unknown def = %d, want 404", code)
	}
}

// TestE2EStreamFollowsLiveJob pins the follow half of the progress stream:
// a client connected while the job runs receives events as they happen and
// the stream closes on its own at the terminal state — no client timeout.
func TestE2EStreamFollowsLiveJob(t *testing.T) {
	lefSrc, defSrc := fixtureSources(300, 60, 3)

	s := server.New(server.Config{QueueDepth: 4, Runners: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var st server.JobStatus
	if resp := postJob(t, ts.URL, &server.JobRequest{LEF: lefSrc, DEF: defSrc}, &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}

	// Connect immediately — most of the stream arrives while running.
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/events", ts.URL, st.JobID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events, err := io.ReadAll(resp.Body) // returns only when the server ends the stream
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(events), `"state":"done"`) {
		t.Fatalf("live-followed stream never delivered the terminal state:\n%s", events)
	}
}

// TestImpossibleFanoutJobFails: the decoder admits "fanout": 1, but no tree
// can meet it, so the job must end failed with the flow's error naming the
// constraint. The poll and the shutdown both run under deadlines: a runner
// stuck in the flow fails the test instead of stalling the suite.
func TestImpossibleFanoutJobFails(t *testing.T) {
	lefSrc, defSrc := fixtureSources(300, 60, 3)

	s := server.New(server.Config{QueueDepth: 2, Runners: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		closed := make(chan struct{})
		go func() {
			s.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down within 10 s: its runner is stuck in the flow")
		}
	}()

	var st server.JobStatus
	req := &server.JobRequest{LEF: lefSrc, DEF: defSrc, Options: server.JobOptions{Fanout: 1}}
	if resp := postJob(t, ts.URL, req, &st); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d, want 202", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.State != server.StateDone && st.State != server.StateFailed && st.State != server.StateCancelled {
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 10 s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
		if code := getJSON(t, ts.URL+"/jobs/"+st.JobID, &st); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", st.JobID, code)
		}
	}
	if st.State != server.StateFailed || !strings.Contains(st.Error, "fanout") {
		t.Fatalf("job ended %s with error %q, want failed naming the fanout", st.State, st.Error)
	}
}
