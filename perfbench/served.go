package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/sweepreq"
)

// served-mixed drives the real volaserved binary with two clients, so at
// most two connections are open at once (the host has two vCPUs):
//
//   - a closed-loop client repeats a cache-hit POST /jobs and
//     GET /jobs/{id}/result for the request the set-up sweep cached;
//   - an open-loop stream submits a small cold contention sweep every
//     coldPeriod and follows its NDJSON event stream to the done event.

const (
	coldPeriod = 600 * time.Millisecond
	// setupBoots is how many times set-up boots a fresh server; the last
	// one serves the measurement.
	setupBoots = 5
)

// hitRequest is the sweep the set-up pass runs cold and the closed-loop
// client then requests from the cache. It is sized (32 instances, ~0.6 s)
// so that computing it, which the kernel normalizes, outweighs the fsyncs
// of set-up, which it cannot.
func hitRequest(seed uint64) sweepreq.Request {
	return sweepreq.Request{Exp: "table3x10", Scenarios: 8, Trials: 4, Seed: seed, Workers: 1}
}

// coldRequest is the i-th cold submission: a fresh seed, alternating the
// contention experiment and the clock (four shapes). The sequence does
// not depend on the workload seed: which platforms a seed draws moves a
// small sweep's cost by more than the bounds, and the cold stream measures
// the service, so every run submits the same cold work.
func coldRequest(i int) sweepreq.Request {
	exp, mode := "table3x5", "slot"
	if i%2 == 1 {
		exp = "table3x10"
	}
	if (i/2)%2 == 1 {
		mode = "event"
	}
	return sweepreq.Request{Exp: exp, Mode: mode, Scenarios: 2, Trials: 4,
		Seed: deriveSeed(0xC01D, uint64(i)), Workers: 1}
}

// server is one volaserved process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

func startServer(bin, dataDir string) (*server, error) {
	if bin == "" {
		return nil, errors.New("served-mixed needs -volaserved")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("volaserved exited before answering /healthz: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("volaserved did not answer /healthz within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks the server to shut down and waits for it to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// client is one connection's worth of HTTP client.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

type submitReply struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Started bool   `json:"started"`
	code    int
}

func (c *client) submit(body []byte) (submitReply, error) {
	var r submitReply
	resp, err := c.http.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	r.code = resp.StatusCode
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		return r, fmt.Errorf("POST /jobs: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return r, json.NewDecoder(resp.Body).Decode(&r)
}

// result fetches a done job's cached result and returns its size in bytes.
func (c *client) result(id string, into any) (int64, error) {
	resp, err := c.http.Get(c.base + "/jobs/" + id + "/result")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET result: status %d", resp.StatusCode)
	}
	if into != nil {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		return int64(len(data)), json.Unmarshal(data, into)
	}
	return io.Copy(io.Discard, resp.Body)
}

func (c *client) getJSON(path string, into any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// jobEvent is the part of a jobs.Event the clients read.
type jobEvent struct {
	Type         string `json:"type"`
	Instances    int    `json:"instances"`
	ResultDigest string `json:"result_digest"`
	Error        string `json:"error"`
}

// followed is one job's event stream as a client saw it.
type followed struct {
	running, done time.Time // receipt times of the running and done events
	last          jobEvent  // the terminal event
}

// follow reads a job's NDJSON event stream to its terminal event.
func (c *client) follow(id string) (followed, error) {
	var f followed
	resp, err := c.http.Get(c.base + "/jobs/" + id + "/events")
	if err != nil {
		return f, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return f, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return f, fmt.Errorf("event stream: %w", err)
		}
		switch ev.Type {
		case "running":
			f.running = time.Now()
		case "done":
			f.done, f.last = time.Now(), ev
			if f.running.IsZero() {
				f.running = f.done // served from cache: no run
			}
			return f, nil
		case "failed", "stopped":
			return f, fmt.Errorf("job %s ended %s: %s", id, ev.Type, ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return f, err
	}
	return f, fmt.Errorf("event stream of %s ended without a terminal event", id)
}

// runCold submits a request that must start a sweep and follows it to done.
func (c *client) runCold(req sweepreq.Request) (submitReply, followed, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return submitReply{}, followed{}, err
	}
	sr, err := c.submit(body)
	if err != nil {
		return sr, followed{}, err
	}
	if !sr.Started || sr.code != http.StatusCreated {
		return sr, followed{}, fmt.Errorf("cold submit of %s: status %d started=%v, want 201 and a started sweep", req.Exp, sr.code, sr.Started)
	}
	f, err := c.follow(sr.ID)
	return sr, f, err
}

// servedSetup boots a fresh server and runs the warm-up sweep that fills
// the result cache; it returns the running server and the cached job ID.
func servedSetup(e env, dir string) (*server, string, error) {
	srv, err := startServer(e.volaserved, dir)
	if err != nil {
		return nil, "", err
	}
	sr, _, err := newClient(srv.base).runCold(hitRequest(e.seed))
	if err != nil {
		srv.stop()
		return nil, "", fmt.Errorf("warm-up: %w", err)
	}
	return srv, sr.ID, nil
}

// coldJob records one open-loop submission.
type coldJob struct {
	req      sweepreq.Request
	due      time.Time
	late     time.Duration
	reply    submitReply
	followed followed
	k        time.Duration // kernel sample current when the job finished
}

func servedWorkload(e env, traced bool) (*report, error) {
	if traced {
		return tracedServed(e)
	}
	rep := &report{Correct: true}
	root, err := os.MkdirTemp(e.scratch, "served-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	var setups []float64
	var srv *server
	var hitID string
	for i := 0; i < setupBoots; i++ {
		t0 := time.Now()
		s, id, err := servedSetup(e, filepath.Join(root, fmt.Sprintf("data%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, normalize(time.Since(t0), e.k.sample()).Seconds())
		if srv != nil {
			srv.stop()
		}
		srv, hitID = s, id
	}
	defer srv.stop()

	hitBody, err := json.Marshal(hitRequest(e.seed))
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(e.seconds) * time.Second)

	// Both loops normalize by the closed loop's latest kernel sample.
	var kNow atomic.Int64
	kNow.Store(int64(e.k.sample()))
	coldDone := make(chan []coldJob, 1)
	go func() {
		c := newClient(srv.base)
		var jobs []coldJob
		for i := 0; ; i++ {
			due := start.Add(time.Duration(i) * coldPeriod)
			if !due.Before(deadline) {
				break
			}
			time.Sleep(time.Until(due))
			j := coldJob{req: coldRequest(i), due: due, late: time.Since(due)}
			var err error
			j.reply, j.followed, err = c.runCold(j.req)
			j.k = time.Duration(kNow.Load())
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cold job:", err)
			}
			jobs = append(jobs, j)
		}
		coldDone <- jobs
	}()

	// Closed loop: one client, next request only after the previous reply.
	// Every kernelEvery it takes a kernel sample, which normalizes the hits
	// and the cold jobs.
	const kernelEvery = 100 * time.Millisecond
	hc := newClient(srv.base)
	var hits []float64
	var hitAttempts, hitErrs, wrongHits int
	k := e.k.sample()
	var lastK time.Time
	for time.Now().Before(deadline) {
		if time.Since(lastK) > kernelEvery {
			k = e.k.sample()
			kNow.Store(int64(k))
			lastK = time.Now()
		}
		t0 := time.Now()
		sr, err := hc.submit(hitBody)
		d := time.Since(t0)
		hitAttempts++
		if err != nil {
			hitErrs++
			continue
		}
		if sr.Started || sr.State != "done" || sr.ID != hitID {
			wrongHits++
			continue
		}
		hits = append(hits, normalize(d, k).Seconds())
		t0 = time.Now()
		_, err = hc.result(hitID, nil)
		d = time.Since(t0)
		hitAttempts++
		if err != nil {
			hitErrs++
			continue
		}
		hits = append(hits, normalize(d, k).Seconds())
	}
	rep.check(wrongHits == 0, "%d cache-hit submissions did not answer the cached, done job", wrongHits)
	jobs := <-coldDone
	rss, err := peakRSSMB(strconv.Itoa(srv.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}

	// Correctness: the cached result and every cold result must match an
	// in-process run of the same request, and every submission must be
	// either a cache hit or a started sweep.
	var cached struct {
		ConfigDigest string `json:"config_digest"`
		ResultDigest string `json:"result_digest"`
	}
	if _, err := hc.result(hitID, &cached); err != nil {
		return nil, err
	}
	var cold, service, late []float64
	coldInstances, coldErrs := 0, 0
	reqs := []sweepreq.Request{hitRequest(e.seed)}
	served := []string{cached.ResultDigest}
	for _, j := range jobs {
		if j.followed.done.IsZero() {
			coldErrs++
			continue
		}
		cold = append(cold, normalize(j.followed.done.Sub(j.due), j.k).Seconds())
		service = append(service, normalize(j.followed.done.Sub(j.followed.running), j.k).Seconds())
		late = append(late, j.late.Seconds())
		coldInstances += j.followed.last.Instances
		reqs = append(reqs, j.req)
		served = append(served, j.followed.last.ResultDigest)
	}
	want, err := inProcessDigests(reqs)
	if err != nil {
		return nil, err
	}
	for i := range reqs {
		rep.check(served[i] == want[i], "%s seed %d: served digest %.12s, in-process run %.12s",
			reqs[i].Exp, reqs[i].Seed, served[i], want[i])
	}
	// Every hit answered the cached job, every cold submission started a
	// sweep, and the server's job table holds exactly the warm-up and the
	// cold jobs: no submission was lost or started twice.
	started := 1 + len(jobs) - coldErrs
	var listed []json.RawMessage
	if err := hc.getJSON("/jobs", &listed); err != nil {
		return nil, err
	}
	rep.check(len(listed) == started, "server lists %d jobs, %d sweeps started", len(listed), started)

	rep.Attempted = hitAttempts + 2*len(jobs)
	rep.Failed = hitErrs + coldErrs
	if len(hits) < 2*minBeyond || len(cold) < 2*minBeyond {
		return nil, fmt.Errorf("%d hit and %d cold samples: too few for a median with %d beyond", len(hits), len(cold), minBeyond)
	}
	// The cold jobs cycle through four shapes of different cost, so a
	// pooled median would sit on a boundary between shapes; the cold latency
	// is a geometric mean over the fixed job sequence instead.
	rep.set("instances_per_s", float64(coldInstances)/sum(service), "1/s")
	rep.set("requests_per_s", float64(len(hits))/sum(hits), "1/s")
	rep.set("hit_p50_ms", 1000*median(hits), "ms")
	rep.set("cold_p50_ms", 1000*geomean(cold), "ms")
	rep.set("peak_rss_mb", rss, "MiB")
	rep.set("setup_s", median(setups), "s")
	tail, tailP, n, _ := percentile(hits, 99)
	rep.note("served-mixed seed %d: %d hit requests (%d failed), %d cold jobs (%d failed), %d cold instances",
		e.seed, hitAttempts, hitErrs, len(jobs), coldErrs, coldInstances)
	rep.note("hit latency p%.1f %.4f ms over %d samples; cold latency median %.1f ms over %d jobs; generator lateness median %.1f ms, max %.1f ms",
		tailP, 1000*tail, n, 1000*median(cold), len(cold), 1000*median(late), 1000*maxOf(late))
	return rep, nil
}

// inProcessDigests runs each request in this process, without
// checkpointing, and returns their result digests. It runs after the
// measurement, two requests at a time, one per vCPU.
func inProcessDigests(reqs []sweepreq.Request) ([]string, error) {
	digests := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				digests[i], errs[i] = inProcessDigest(reqs[i])
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return digests, errors.Join(errs...)
}

// inProcessDigest runs a request in this process, without checkpointing,
// and returns its result digest.
func inProcessDigest(req sweepreq.Request) (string, error) {
	built, err := sweepreq.Build(req)
	if err != nil {
		return "", err
	}
	res, err := built.Run(sweepreq.RunOpts{})
	if err != nil {
		return "", err
	}
	return res.Digest(), nil
}
