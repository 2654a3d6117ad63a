package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"sllt/internal/baseline"
	"sllt/internal/cache"
	"sllt/internal/cts"
	"sllt/internal/design"
	"sllt/internal/designgen"
	"sllt/internal/lefdef"
	"sllt/internal/liberty"
	"sllt/internal/obs"
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

// offlineReference runs the cmd/slltcts pipeline in-process under opts on
// one worker: stream-parse, synthesize, stream-export. Its bytes are the
// truth the daemon must match.
func offlineReference(t *testing.T, lefSrc, defSrc string, opts cts.Options) (defOut []byte, fp string) {
	t.Helper()
	d, err := design.Load(strings.NewReader(lefSrc), strings.NewReader(defSrc), "")
	if err != nil {
		t.Fatal(err)
	}
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
	wantDEF, wantFP := offlineReference(t, lefSrc, defSrc, cts.DefaultOptions())

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

// TestRunFlowEngine: a job that names the OpenROAD proxy and sets no knob
// runs that proxy's own configuration, so RunFlow returns the DEF of
// cts.Run under baseline.OpenROADLike on the same input.
func TestRunFlowEngine(t *testing.T) {
	lefSrc, defSrc := fixtureSources(400, 80, 11)
	wantDEF, wantFP := offlineReference(t, lefSrc, defSrc, baseline.OpenROADLike())
	req := &server.JobRequest{LEF: lefSrc, DEF: defSrc, Options: server.JobOptions{Engine: "openroad"}}
	got, err := server.RunFlow(context.Background(), req, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != wantFP {
		t.Errorf("RunFlow fingerprint %s != offline %s", got.Fingerprint, wantFP)
	}
	if !bytes.Equal(got.DEF, wantDEF) {
		t.Errorf("RunFlow DEF (%d bytes) differs from cts.Run under OpenROADLike (%d bytes)", len(got.DEF), len(wantDEF))
	}
}

// TestRunFlowEngineOwnLibrary: the OpenROAD proxy buffers with the
// strongest cell of the library the job brings, not of the default one. A
// library of the default cells renamed MYBUFX2…MYBUFX16 must place
// MYBUFX16 and nothing else.
func TestRunFlowEngineOwnLibrary(t *testing.T) {
	lefSrc, defSrc := fixtureSources(600, 300, 1)
	specs := liberty.Default28nmSpecs()
	for i := range specs {
		specs[i].Name = strings.Replace(specs[i].Name, "CLKBUF", "MYBUF", 1)
	}
	req := &server.JobRequest{
		LEF: lefSrc, DEF: defSrc, Liberty: liberty.GenerateSource("renamed", specs),
		Options: server.JobOptions{Engine: "openroad"},
	}
	got, err := server.RunFlow(context.Background(), req, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := lefdef.ParseDEF(string(got.DEF))
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]int{}
	for _, c := range out.Components {
		if strings.HasPrefix(c.Name, "clkbuf_") {
			cells[c.Macro]++
		}
	}
	if len(cells) != 1 || cells["MYBUFX16"] == 0 {
		t.Errorf("openroad job with its own library placed %v, want MYBUFX16 only", cells)
	}
}

// TestBadInputJobFails: a job whose LEF, DEF or Liberty text does not
// parse ends failed with the parser's own error, which already names the
// format, so a client reads it once.
func TestBadInputJobFails(t *testing.T) {
	lefSrc, defSrc := fixtureSources(300, 60, 3)
	s := server.New(server.Config{QueueDepth: 4, Runners: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	cases := []struct {
		name string
		req  server.JobRequest
		want string
	}{
		{"def", server.JobRequest{LEF: lefSrc, DEF: "VERSION 5.8 ;"}, "def: missing DESIGN statement"},
		{"lef", server.JobRequest{LEF: "MACRO", DEF: defSrc}, "lef: malformed MACRO at token 0"},
		{"liberty", server.JobRequest{LEF: lefSrc, DEF: defSrc, Liberty: "cell (x) { }"},
			`liberty: top-level group is "cell", want library`},
	}
	for _, tc := range cases {
		var st server.JobStatus
		if resp := postJob(t, ts.URL, &tc.req, &st); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: POST /jobs = %d, want 202", tc.name, resp.StatusCode)
		}
		st = pollUntil(t, ts.URL, st.JobID, func(st server.JobStatus) bool { return st.State == server.StateFailed })
		if st.Error != tc.want {
			t.Errorf("bad %s: job error %q, want %q", tc.name, st.Error, tc.want)
		}
	}
}

// TestE2ECachedRepeat submits one design twice to a daemon with a shared
// run cache. The repeat must replay: its DEF equals the first job's and the
// offline reference, its report's cache section is one hit and no miss,
// and its progress stream still carries the level records.
func TestE2ECachedRepeat(t *testing.T) {
	lefSrc, defSrc := fixtureSources(400, 80, 13)
	wantDEF, _ := offlineReference(t, lefSrc, defSrc, cts.DefaultOptions())

	store, err := cache.New(cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{QueueDepth: 4, Runners: 1, Cache: store})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var defs [2][]byte
	var id string
	for i := range defs {
		var st server.JobStatus
		if resp := postJob(t, ts.URL, &server.JobRequest{LEF: lefSrc, DEF: defSrc}, &st); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("job %d: POST /jobs = %d, want 202", i+1, resp.StatusCode)
		}
		id = st.JobID
		pollUntil(t, ts.URL, id, func(s server.JobStatus) bool { return s.State == server.StateDone })
		var code int
		if code, defs[i] = getBytes(t, ts.URL+"/jobs/"+id+"/def"); code != http.StatusOK {
			t.Fatalf("job %d: GET def = %d, want 200", i+1, code)
		}
	}
	if !bytes.Equal(defs[1], defs[0]) || !bytes.Equal(defs[1], wantDEF) {
		t.Error("repeated job's DEF differs from the first job's or the offline reference")
	}

	code, data := getBytes(t, ts.URL+"/jobs/"+id+"/report")
	if code != http.StatusOK {
		t.Fatalf("GET report = %d, want 200", code)
	}
	var rep obs.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cache == nil || rep.Cache.Hits != 1 || rep.Cache.Misses != 0 {
		t.Errorf("repeated job's cache section = %+v, want one hit and no miss", rep.Cache)
	}
	if code, events := getBytes(t, ts.URL+"/jobs/"+id+"/events"); code != http.StatusOK || !strings.Contains(string(events), `"kind":"level"`) {
		t.Errorf("repeated job's progress stream (status %d) carries no level record", code)
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
