package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	volatile "repro"
	"repro/internal/jobs"
	"repro/internal/sweepreq"
)

// serviceRequest is the request the traced run of a sweep workload submits
// to the service layers: the workload's own request cut to one scenario per
// cell, which keeps the traced run within its time limit. largep-event's own
// sweep has no request form (one iteration per run), so it submits the
// smallest largep request instead.
func serviceRequest(workload string, seed uint64) sweepreq.Request {
	if workload == "largep-event" {
		return sweepreq.Request{Exp: "largep", Mode: "event", Procs: largeP, Scenarios: 1, Trials: 1, Seed: seed, Workers: 1}
	}
	req := *specFor(workload, seed).req
	req.Scenarios = 1
	return req
}

// specForRequest mirrors sweepreq.Build for the contention experiments the
// served workload submits, so their sweeps can be replayed.
func specForRequest(req sweepreq.Request) (sweepSpec, error) {
	req = req.WithDefaults()
	scale := map[string]int{"table3x5": 5, "table3x10": 10}[req.Exp]
	if scale == 0 {
		return sweepSpec{}, fmt.Errorf("no replay for experiment %q", req.Exp)
	}
	cfg := volatile.Table3Config(scale, req.Scenarios, req.Trials, req.Seed)
	mode, err := volatile.ParseMode(req.Mode)
	if err != nil {
		return sweepSpec{}, err
	}
	cfg.Mode = mode
	return sweepSpec{cfg: cfg, req: &req}, nil
}

// jobTiming is one cold job as the in-process scheduler ran it.
type jobTiming struct {
	req            sweepreq.Request
	submit         time.Duration
	queue, run     time.Duration // submit to running, running to done
	events         int
	resultDigest   string
	plain          time.Duration // the same request run without a checkpoint
	submittedStart bool
}

// runJob submits a request that must start a sweep and follows its event
// stream to the done event. The run time is normalized by kernel samples
// taken before the submission and after the done event.
func runJob(sched *jobs.Scheduler, tr *tracer, parent int, req sweepreq.Request, k *kernel) (jobTiming, error) {
	jt := jobTiming{req: req}
	kBefore := k.sample()
	id := tr.begin("jobs.submit", parent)
	t0 := time.Now()
	j, started, err := sched.Submit(req)
	jt.submit = tr.end(id)
	if err != nil {
		return jt, err
	}
	jt.submittedStart = started
	ch, cancel := j.Subscribe()
	defer cancel()
	var running time.Time
	for ev := range ch {
		jt.events++
		switch ev.Type {
		case "running":
			running = time.Now()
			jt.queue = running.Sub(t0)
		case "done":
			jt.run = normalize(time.Since(running), (kBefore+k.sample())/2)
			jt.resultDigest = ev.ResultDigest
			return jt, nil
		case "failed", "stopped":
			return jt, fmt.Errorf("job %s ended %s: %s", j.Digest, ev.Type, ev.Error)
		}
	}
	return jt, fmt.Errorf("event stream of %s closed before done", j.Digest)
}

// hitPause spaces the in-process cache hits.
const hitPause = 50 * time.Microsecond

// serviceLayers replays a request sequence against an in-process
// jobs.Scheduler: the hit request runs cold first, then a closed loop of
// cache-hit submissions and result reads runs for window while the cold
// requests are submitted every coldPeriod beside it. The real volaserved
// binary then serves the same data directory, so its round trips can be set
// against the in-process calls. It reports the sweepreq, jobs, checkpoint
// and volaserved metrics.
func serviceLayers(e env, tr *tracer, root int, hit sweepreq.Request, cold []sweepreq.Request,
	window time.Duration, rep *report) error {
	dir, err := os.MkdirTemp(e.scratch, "jobs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var builds []float64
	for i := 0; i < 200; i++ {
		id := tr.begin("sweepreq.build", root)
		if _, err := sweepreq.Build(hit); err != nil {
			return err
		}
		builds = append(builds, float64(tr.end(id).Nanoseconds())/1e3)
	}

	sched, err := jobs.New(jobs.Options{DataDir: dir})
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			sched.Stop()
		}
	}()
	span := tr.begin("jobs.replay", root)
	warm, err := runJob(sched, tr, span, hit, e.k)
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	coldJobs := []jobTiming{warm}

	var wg sync.WaitGroup
	var coldErr error
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, req := range cold {
			time.Sleep(time.Until(start.Add(time.Duration(i) * coldPeriod)))
			jt, err := runJob(sched, tr, span, req, e.k)
			if err != nil {
				coldErr = err
				return
			}
			coldJobs = append(coldJobs, jt)
		}
	}()
	var hitSubmit, results []float64
	submits, hits := 1+len(cold), 0
	hitID := ""
	var hitErr error
	for time.Since(start) < window || hits < 2*minBeyond {
		id := tr.begin("jobs.submit", span)
		j, started, err := sched.Submit(hit)
		d := tr.end(id)
		submits++
		if err != nil {
			hitErr = err
			break
		}
		if !started && j.State() == jobs.StateDone {
			hits++
		}
		hitID = j.Digest
		hitSubmit = append(hitSubmit, float64(d.Nanoseconds())/1e3)
		id = tr.begin("jobs.result", span)
		job, ok := sched.Get(hitID)
		var res *jobs.CachedResult
		if ok && job.State() == jobs.StateDone {
			res, ok = job.Result()
		}
		d = tr.end(id)
		if !ok || res == nil {
			hitErr = fmt.Errorf("no cached result for %s", hitID)
			break
		}
		results = append(results, float64(d.Nanoseconds())/1e3)
		// Pace the loop near the HTTP client's rate, so the hits interleave
		// with the cold submissions as they do on the server and the span
		// log stays small.
		time.Sleep(hitPause)
	}
	wg.Wait()
	tr.end(span)
	if hitErr != nil {
		return hitErr
	}
	if coldErr != nil {
		return coldErr
	}
	sweepsStarted := sched.SweepsStarted()
	rep.check(int64(hits)+sweepsStarted == int64(submits),
		"jobs: cache hits %d + sweeps started %d != submits %d", hits, sweepsStarted, submits)
	sched.Stop()
	stopped = true

	// checkpoint: each cold job's run inside jobs against the same request
	// run in-process without a checkpoint.
	var queue, events, ckOverhead, coldSubmit []float64
	for i := range coldJobs {
		jt := &coldJobs[i]
		built, err := sweepreq.Build(jt.req)
		if err != nil {
			return err
		}
		kBefore := e.k.sample()
		t0 := time.Now()
		res, err := built.Run(sweepreq.RunOpts{})
		jt.plain = normalize(time.Since(t0), (kBefore+e.k.sample())/2)
		if err != nil {
			return err
		}
		rep.check(jt.submittedStart, "cold submission of %s did not start a sweep", built.Digest)
		rep.check(res.Digest() == jt.resultDigest, "job result digest %.12s, in-process run %.12s", jt.resultDigest, res.Digest())
		queue = append(queue, ms(jt.queue))
		events = append(events, float64(jt.events))
		ckOverhead = append(ckOverhead, ms(jt.run-jt.plain))
		coldSubmit = append(coldSubmit, float64(jt.submit.Nanoseconds())/1e3)
	}

	srvRTT, err := volaservedRTT(e, tr, root, dir, hit, hitID)
	if err != nil {
		return err
	}

	rep.Attempted += submits + len(results) + srvRTT.requests
	rep.set("sweepreq.build_us", median(builds), "us")
	rep.set("jobs.submits", float64(submits), "count")
	rep.set("jobs.cache_hits", float64(hits), "count")
	rep.set("jobs.sweeps_started", float64(sweepsStarted), "count")
	rep.set("jobs.submit_hit_us", median(hitSubmit), "us")
	rep.set("jobs.submit_cold_us", median(coldSubmit), "us")
	rep.set("jobs.result_us", median(results), "us")
	rep.set("jobs.queue_ms", median(queue), "ms")
	rep.set("jobs.events_per_cold_job", median(events), "count")
	rep.set("checkpoint.overhead_ms", median(ckOverhead), "ms")
	rep.set("volaserved.submit_rtt_us", median(srvRTT.submit), "us")
	p99, _, _, _ := percentile(srvRTT.submit, 99)
	rep.set("volaserved.submit_rtt_p99_us", p99, "us")
	rep.set("volaserved.result_rtt_us", median(srvRTT.result), "us")
	rep.set("volaserved.self_us", median(srvRTT.submit)-median(hitSubmit), "us")
	rep.set("volaserved.result_bytes", float64(srvRTT.resultBytes), "bytes")
	return nil
}

type rttSamples struct {
	submit, result []float64 // microseconds
	resultBytes    int64
	requests       int
}

// volaservedRTT boots volaserved on a data directory that already caches
// the hit request's result and times a closed loop of cache-hit round trips.
func volaservedRTT(e env, tr *tracer, root int, dir string, hit sweepreq.Request, hitID string) (rttSamples, error) {
	var s rttSamples
	srv, err := startServer(e.volaserved, dir)
	if err != nil {
		return s, err
	}
	defer srv.stop()
	span := tr.begin("volaserved.hits", root)
	defer tr.end(span)
	body, err := json.Marshal(hit)
	if err != nil {
		return s, err
	}
	c := newClient(srv.base)
	deadline := time.Now().Add(time.Second)
	for len(s.submit) < 20*minBeyond || time.Now().Before(deadline) {
		id := tr.begin("volaserved.submit", span)
		sr, err := c.submit(body)
		d := tr.end(id)
		s.requests++
		if err != nil {
			return s, err
		}
		if sr.ID != hitID || sr.Started || sr.State != string(jobs.StateDone) {
			return s, fmt.Errorf("volaserved answered %+v for a cached request", sr)
		}
		s.submit = append(s.submit, float64(d.Nanoseconds())/1e3)
		id = tr.begin("volaserved.result", span)
		n, err := c.result(hitID, nil)
		d = tr.end(id)
		s.requests++
		if err != nil {
			return s, err
		}
		s.result = append(s.result, float64(d.Nanoseconds())/1e3)
		s.resultBytes = n
	}
	return s, nil
}

// tracedServed is the traced run of served-mixed: the hit request and the
// cold requests of the first half window are replayed through the traced
// sweep replay, then the request sequence runs against an in-process
// jobs.Scheduler and the real volaserved.
func tracedServed(e env) (*report, error) {
	rep := &report{Correct: true}
	tr := newTracer()
	root := tr.begin("perfbench.traced", 0)
	window := time.Duration(e.seconds) * time.Second / 2
	hit := hitRequest(e.seed)
	var cold []sweepreq.Request
	for i := 0; time.Duration(i)*coldPeriod < window; i++ {
		cold = append(cold, coldRequest(i))
	}

	var layers sweepLayers
	for _, req := range append([]sweepreq.Request{hit}, cold...) {
		spec, err := specForRequest(req)
		if err != nil {
			return nil, err
		}
		if _, err := layers.traceSweep(e, tr, root, spec); err != nil {
			return nil, err
		}
		rep.Attempted += 2 * spec.instances()
	}
	layers.set(rep, tr)
	if err := serviceLayers(e, tr, root, hit, cold, window, rep); err != nil {
		return nil, err
	}
	tr.end(root)
	path := filepath.Join(e.scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.note("served-mixed seed %d traced: %d sweeps replayed with equal digests; spans in %s", e.seed, 1+len(cold), path)
	rep.note("tracing overhead: replays %.2f s vs untraced sweeps %.2f s", layers.replay.Seconds(), layers.sweepTime.Seconds())
	return rep, nil
}
