package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/sweepreq"
)

func newTestServer(t *testing.T, dir string) (*httptest.Server, *jobs.Scheduler) {
	t.Helper()
	sched, err := jobs.New(jobs.Options{DataDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(sched))
	t.Cleanup(func() {
		ts.Close()
		sched.Stop()
	})
	return ts, sched
}

func submit(t *testing.T, ts *httptest.Server, req sweepreq.Request) (submitResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return sr, resp.StatusCode
}

// streamContext bounds an event stream by the test binary's -timeout, less
// a margin so that a stream cut short fails with the read error rather than
// as a timeout panic; a slow host is not a server fault.
func streamContext(t *testing.T) (context.Context, context.CancelFunc) {
	if deadline, ok := t.Deadline(); ok {
		return context.WithDeadline(context.Background(), deadline.Add(-10*time.Second))
	}
	return context.WithCancel(context.Background())
}

// followEvents streams /jobs/{id}/events (NDJSON) until the stream closes,
// returning every event. The stream may last until streamContext's
// deadline.
func followEvents(t *testing.T, ts *httptest.Server, id string) []jobs.Event {
	t.Helper()
	ctx, cancel := streamContext(t)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events Content-Type %q, want application/x-ndjson", ct)
	}
	var evs []jobs.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events stream of job %s ended after %d events: %v", id, len(evs), err)
	}
	return evs
}

func getResult(t *testing.T, ts *httptest.Server, id string) (*jobs.CachedResult, int) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var cr jobs.CachedResult
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	return &cr, resp.StatusCode
}

func fastReq() sweepreq.Request {
	return sweepreq.Request{Exp: "table3x5", Scenarios: 1, Trials: 1, Seed: 21}
}

// TestSubmitStreamResult is the basic end-to-end session: submit, follow
// the event stream to completion, fetch the result, cross-check the digest
// against a direct library run.
func TestSubmitStreamResult(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir())

	sr, code := submit(t, ts, fastReq())
	if code != http.StatusCreated || !sr.Started {
		t.Fatalf("submit: code=%d started=%v, want 201/true", code, sr.Started)
	}
	if sr.ID == "" || sr.Exp != "table3x5" {
		t.Fatalf("submit response %+v", sr)
	}

	evs := followEvents(t, ts, sr.ID)
	if len(evs) == 0 || evs[len(evs)-1].Type != "done" {
		t.Fatalf("event stream did not end in done: %+v", evs)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (stream must replay from 0 gaplessly)", i, ev.Seq)
		}
	}

	res, code := getResult(t, ts, sr.ID)
	if code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	built, err := sweepreq.Build(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := built.Run(sweepreq.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultDigest != direct.Digest() {
		t.Fatalf("served digest %s != direct run %s", res.ResultDigest, direct.Digest())
	}
	if res.ConfigDigest != sr.ID || res.Format == "" || len(res.Overall) == 0 {
		t.Fatalf("cached result incomplete: %+v", res)
	}

	// Status and list views agree.
	resp, err := http.Get(ts.URL + "/jobs/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != jobs.StateDone || st.ID != sr.ID {
		t.Fatalf("status %+v, want done/%s", st, sr.ID)
	}
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != sr.ID {
		t.Fatalf("job list %+v, want exactly the submitted job", list)
	}
}

// TestEventStreamSSE pins the SSE wire format on a replayed (already done)
// job: event:/data: frames, one per log entry.
func TestEventStreamSSE(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir())
	sr, _ := submit(t, ts, fastReq())
	followEvents(t, ts, sr.ID) // run to completion

	req, err := http.NewRequest("GET", ts.URL+"/jobs/"+sr.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{"event: queued\n", "event: running\n", "event: done\n", "data: {"} {
		if !strings.Contains(body, want) {
			t.Fatalf("SSE body missing %q:\n%s", want, body)
		}
	}
}

// TestCacheHitSecondSubmission pins the service-level cache contract: the
// second identical POST answers 200/started=false and the scheduler never
// launches a second sweep.
func TestCacheHitSecondSubmission(t *testing.T) {
	ts, sched := newTestServer(t, t.TempDir())
	sr1, code := submit(t, ts, fastReq())
	if code != http.StatusCreated {
		t.Fatalf("first submit status %d", code)
	}
	followEvents(t, ts, sr1.ID)

	sr2, code := submit(t, ts, fastReq())
	if code != http.StatusOK || sr2.Started || sr2.ID != sr1.ID {
		t.Fatalf("second submit: code=%d started=%v id=%s, want 200/false/%s", code, sr2.Started, sr2.ID, sr1.ID)
	}
	if n := sched.SweepsStarted(); n != 1 {
		t.Fatalf("cache hit ran a sweep (SweepsStarted=%d)", n)
	}
	res1, _ := getResult(t, ts, sr1.ID)
	res2, _ := getResult(t, ts, sr2.ID)
	if res1.ResultDigest != res2.ResultDigest {
		t.Fatalf("cache hit served a different digest: %s != %s", res2.ResultDigest, res1.ResultDigest)
	}
}

// TestStopRestartResume is the acceptance criterion at the HTTP level: a
// job stopped mid-run via the API, its server torn down, resumes on a
// fresh server over the same data dir and serves the digest of an
// uninterrupted run.
func TestStopRestartResume(t *testing.T) {
	req := sweepreq.Request{Exp: "table3x5", Scenarios: 10, Trials: 4, Seed: 21}
	built, err := sweepreq.Build(req)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := built.Run(sweepreq.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := direct.Digest()

	dir := t.TempDir()
	sched1, err := jobs.New(jobs.Options{DataDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(newServer(sched1))
	sr, code := submit(t, ts1, req)
	if code != http.StatusCreated {
		t.Fatalf("submit status %d", code)
	}
	// Follow the stream until first progress, then stop via the API.
	ctx, cancel := streamContext(t)
	defer cancel()
	evReq, err := http.NewRequestWithContext(ctx, "GET", ts1.URL+"/jobs/"+sr.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(evReq)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	stopSent := false
	sawStopped := false
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == "progress" && !stopSent {
			stopSent = true
			stopResp, err := http.Post(ts1.URL+"/jobs/"+sr.ID+"/stop", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			stopResp.Body.Close()
			if stopResp.StatusCode != http.StatusAccepted {
				t.Fatalf("stop status %d", stopResp.StatusCode)
			}
		}
		if ev.Type == "stopped" {
			sawStopped = true
			if ev.CommittedChunks <= 0 || ev.CommittedChunks >= ev.Chunks {
				t.Fatalf("stopped with %d/%d chunks, want a strict prefix", ev.CommittedChunks, ev.Chunks)
			}
		}
		if ev.Type == "done" {
			t.Fatal("job completed before the stop landed; raise the job size")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("events stream of job %s cut: %v", sr.ID, err)
	}
	resp.Body.Close()
	if !stopSent || !sawStopped {
		t.Fatalf("stop path not exercised (stopSent=%v sawStopped=%v)", stopSent, sawStopped)
	}
	// A stopped job has no result yet.
	if _, code := getResult(t, ts1, sr.ID); code != http.StatusConflict {
		t.Fatalf("result of a stopped job answered %d, want 409", code)
	}
	ts1.Close()
	sched1.Stop() // server restart

	sched2, err := jobs.New(jobs.Options{DataDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(newServer(sched2))
	defer func() {
		ts2.Close()
		sched2.Stop()
	}()
	sr2, code := submit(t, ts2, req)
	if code != http.StatusCreated || !sr2.Started || sr2.ID != sr.ID {
		t.Fatalf("resubmit: code=%d started=%v id=%s, want 201/true/%s", code, sr2.Started, sr2.ID, sr.ID)
	}
	evs := followEvents(t, ts2, sr2.ID)
	if len(evs) == 0 || evs[len(evs)-1].Type != "done" {
		t.Fatalf("resumed job did not finish: %+v", evs)
	}
	res, _ := getResult(t, ts2, sr2.ID)
	if res.ResultDigest != want {
		t.Fatalf("kill-and-restart digest %s != uninterrupted %s", res.ResultDigest, want)
	}
}

// TestBadRequestsAndNotFound pins the error surface.
func TestBadRequestsAndNotFound(t *testing.T) {
	ts, _ := newTestServer(t, t.TempDir())
	cases := []struct {
		name string
		body string
		want string
	}{
		{"invalid-json", "{", "bad request body"},
		{"unknown-field", `{"exp":"table2","nope":1}`, "unknown field"},
		// A run is deterministic in its seed, so there is no retry budget.
		{"retries", `{"exp":"table2","retries":2}`, `unknown field "retries"`},
		{"unknown-exp", `{"exp":"table9"}`, "unknown experiment"},
		{"non-sweep-exp", `{"exp":"ablation"}`, "does not run through the sweep pipeline"},
		{"bad-scenarios", `{"exp":"table2","scenarios":-1}`, "-scenarios must be positive"},
		{"oversized", `{"exp":"table2","scenarios":1099511627776}`, "exceeds the limit of 16777216 instances"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var er errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(er.Error, c.want) {
				t.Fatalf("error %q missing %q", er.Error, c.want)
			}
		})
	}
	for _, path := range []string{"/jobs/deadbeef", "/jobs/deadbeef/events", "/jobs/deadbeef/result"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(ts.URL+"/jobs/deadbeef/stop", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stop of unknown job status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

// TestEverySweepFamilyEndToEnd runs each of the eight sweep families
// (moldable included) through submit → stream → result at the smallest
// real size. The paper grids make table2/figure2/dfrs/tracesweep/moldable
// genuinely expensive even at 1×1, so this is the slow test of the
// package (~60s).
func TestEverySweepFamilyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-family pass sweeps four 120-cell paper grids")
	}
	ts, sched := newTestServer(t, t.TempDir())
	seen := map[string]bool{}
	for _, exp := range sweepreq.SweepExperiments() {
		req := sweepreq.Request{Exp: exp, Scenarios: 1, Trials: 1, Seed: 5}
		if exp == "tracesweep" {
			req.TraceLen = 300
		}
		sr, code := submit(t, ts, req)
		if code != http.StatusCreated {
			t.Fatalf("%s: submit status %d", exp, code)
		}
		if seen[sr.ID] {
			t.Fatalf("%s: config digest collides with another family", exp)
		}
		seen[sr.ID] = true
		evs := followEvents(t, ts, sr.ID)
		if len(evs) == 0 || evs[len(evs)-1].Type != "done" {
			t.Fatalf("%s: stream did not end in done: %+v", exp, evs)
		}
		res, code := getResult(t, ts, sr.ID)
		if code != http.StatusOK {
			t.Fatalf("%s: result status %d", exp, code)
		}
		if res.ResultDigest == "" || res.Instances == 0 || len(res.Overall) == 0 {
			t.Fatalf("%s: empty result %+v", exp, res)
		}
		if !strings.Contains(res.Format, "emct") {
			t.Fatalf("%s: formatted table does not rank the paper heuristics:\n%s", exp, res.Format)
		}
	}
	if n := sched.SweepsStarted(); n != int64(len(seen)) {
		t.Fatalf("SweepsStarted = %d, want %d", n, len(seen))
	}
}

// TestSlowHeadersDisconnected checks the server's header timeout: a client
// that opens a connection and never finishes its request headers is
// disconnected, while a complete request on the same server is answered.
// The server sets no write timeout, which would cut off event streams.
func TestSlowHeadersDisconnected(t *testing.T) {
	const headerTimeout = 200 * time.Millisecond
	srv := newHTTPServer("", http.NotFoundHandler(), headerTimeout)
	if srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout = %v, want none (it would cut off /events streams)", srv.WriteTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Fatalf("IdleTimeout = %v, want a bound on idle keep-alive connections", srv.IdleTimeout)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("complete request: status %d, want 404", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\nHost: volaserved\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(20 * headerTimeout))
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection with unfinished headers still open after %v", time.Since(start))
	}
	t.Logf("unfinished-header connection closed after %v", time.Since(start))
}
