// Package jobs is the sweep-as-a-service scheduler behind cmd/volaserved: a
// bounded-concurrency job table keyed by config digest, with a
// content-addressed result cache, per-job event streams, and crash-safe
// resume. A job IS its sweep's content address — submitting the same
// request twice joins the running job or returns the cached result, and a
// server restarted mid-job picks the sweep up from its checkpoint when the
// request is resubmitted, landing on a bit-identical digest.
package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	volatile "repro"
	"repro/internal/atomicio"
	"repro/internal/sweepreq"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted, waiting for a concurrency slot.
	StateQueued State = "queued"
	// StateRunning: the sweep is executing.
	StateRunning State = "running"
	// StateDone: completed; the result is cached under the config digest.
	StateDone State = "done"
	// StateFailed: the sweep returned an error. Resubmitting restarts it
	// (resuming from its checkpoint if one was written).
	StateFailed State = "failed"
	// StateStopped: interrupted by a stop request or server shutdown; the
	// checkpoint holds the committed prefix. Resubmitting resumes it.
	StateStopped State = "stopped"
)

// terminal reports whether the state ends the event stream.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateStopped
}

// Event is one entry of a job's append-only event log. Type is one of
// queued, running, progress, partial, done, failed, stopped; the other
// fields are populated per type.
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	// Done/Total count sweep instances (progress events and later).
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// CommittedChunks/Chunks and Top come from a checkpoint write (partial
	// events): the aggregates committed so far, bit-exactly.
	CommittedChunks int                 `json:"committed_chunks,omitempty"`
	Chunks          int                 `json:"chunks,omitempty"`
	Instances       int                 `json:"instances,omitempty"`
	Top             []volatile.TableRow `json:"top,omitempty"`
	// ResultDigest is set on done events.
	ResultDigest string `json:"result_digest,omitempty"`
	// Error is set on failed events.
	Error string `json:"error,omitempty"`
}

// CachedResult is the durable, JSON-serialized outcome of a completed job —
// what GET /jobs/{id}/result returns and what DataDir/results/<digest>.json
// stores. Format is the canonical full-precision rendering whose SHA-256 is
// ResultDigest, so a client can re-verify the digest offline.
type CachedResult struct {
	ConfigDigest    string              `json:"config_digest"`
	ResultDigest    string              `json:"result_digest"`
	Exp             string              `json:"exp"`
	Instances       int                 `json:"instances"`
	Censored        int                 `json:"censored"`
	FailedInstances int                 `json:"failed_instances"`
	Overall         []volatile.TableRow `json:"overall"`
	Format          string              `json:"format"`
	Warnings        []string            `json:"warnings,omitempty"`
	CompletedAt     time.Time           `json:"completed_at"`
}

// Status is the JSON view of a job for list/get endpoints.
type Status struct {
	ID           string    `json:"id"` // the config digest
	Exp          string    `json:"exp"`
	State        State     `json:"state"`
	Done         int       `json:"done"`
	Total        int       `json:"total"`
	ResultDigest string    `json:"result_digest,omitempty"`
	Error        string    `json:"error,omitempty"`
	SubmittedAt  time.Time `json:"submitted_at"`
}

// Options configures a Scheduler.
type Options struct {
	// DataDir holds checkpoints/ and results/. Required.
	DataDir string
	// MaxConcurrent bounds simultaneously running sweeps (default 1: sweeps
	// are already internally parallel across workers).
	MaxConcurrent int
	// CheckpointEvery is the chunk cadence passed to the sweep (0 = library
	// default).
	CheckpointEvery int
	// ResultsTTL evicts cached results (and their terminal job-table
	// entries) older than this, measured from CachedResult.CompletedAt.
	// 0 keeps results forever. Eviction runs at construction and on a
	// timer, and never touches a job with a live subscriber — a stream
	// replaying a done job keeps its result serveable until it detaches.
	ResultsTTL time.Duration
	// Now injects the eviction clock; nil means time.Now. Tests drive
	// eviction with a fake clock through this.
	Now func() time.Time
}

// ErrShuttingDown rejects submissions after Stop has begun.
var ErrShuttingDown = errors.New("jobs: scheduler is shutting down")

// Scheduler owns the job table. All methods are safe for concurrent use.
type Scheduler struct {
	opts Options

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool

	sem chan struct{}
	wg  sync.WaitGroup

	// gcStop ends the results-TTL eviction loop; gcWG waits for it.
	gcStop chan struct{}
	gcWG   sync.WaitGroup

	sweepsStarted atomic.Int64
}

// New creates a Scheduler and its on-disk layout.
func New(opts Options) (*Scheduler, error) {
	if opts.DataDir == "" {
		return nil, errors.New("jobs: Options.DataDir is required")
	}
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 1
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	for _, d := range []string{opts.DataDir, filepath.Join(opts.DataDir, "checkpoints"), filepath.Join(opts.DataDir, "results"), filepath.Join(opts.DataDir, "requests")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
	}
	s := &Scheduler{
		opts:   opts,
		jobs:   make(map[string]*Job),
		sem:    make(chan struct{}, opts.MaxConcurrent),
		gcStop: make(chan struct{}),
	}
	if opts.ResultsTTL > 0 {
		s.evictExpired()
		s.gcWG.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// gcLoop re-runs results-TTL eviction on a timer until Stop.
func (s *Scheduler) gcLoop() {
	defer s.gcWG.Done()
	interval := s.opts.ResultsTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case <-t.C:
			s.evictExpired()
		}
	}
}

// evictExpired removes cached results older than ResultsTTL from the
// results dir, along with their terminal job-table entries, and returns
// how many it evicted. A job with a live subscriber is skipped entirely —
// eviction never yanks a result out from under an attached stream — as is
// any non-terminal job (its stale cache file from a previous life will be
// rewritten on completion anyway).
func (s *Scheduler) evictExpired() int {
	ttl := s.opts.ResultsTTL
	if ttl <= 0 {
		return 0
	}
	entries, err := os.ReadDir(filepath.Join(s.opts.DataDir, "results"))
	if err != nil {
		return 0
	}
	now := s.opts.Now()
	evicted := 0
	for _, e := range entries {
		digest, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		c, err := s.loadResult(digest)
		if err != nil {
			continue // corrupt cache files are surfaced at load, not GC'd blind
		}
		if now.Sub(c.CompletedAt) <= ttl {
			continue
		}
		s.mu.Lock()
		if j, live := s.jobs[digest]; live {
			if !j.State().terminal() || j.hasSubscribers() {
				s.mu.Unlock()
				continue
			}
			delete(s.jobs, digest)
		}
		s.mu.Unlock()
		os.Remove(s.resultPath(digest))
		evicted++
	}
	return evicted
}

// SweepsStarted reports how many sweep executions this scheduler actually
// launched — the observable cache hits avoid.
func (s *Scheduler) SweepsStarted() int64 { return s.sweepsStarted.Load() }

func (s *Scheduler) checkpointPath(digest string) string {
	return filepath.Join(s.opts.DataDir, "checkpoints", digest+".ckpt")
}

func (s *Scheduler) resultPath(digest string) string {
	return filepath.Join(s.opts.DataDir, "results", digest+".json")
}

func (s *Scheduler) requestPath(digest string) string {
	return filepath.Join(s.opts.DataDir, "requests", digest+".json")
}

// persistRequest durably records an admitted request under its digest so a
// restarted server can resubmit it (ResumeInterrupted). Best-effort: a
// failed write degrades boot auto-resume, never the sweep itself.
func (s *Scheduler) persistRequest(digest string, req sweepreq.Request) {
	_ = atomicio.WriteFile(s.requestPath(digest), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(req)
	})
}

// ResumeInterrupted rescans the data dir for jobs a previous process left
// unfinished — a persisted request with no cached result — and resubmits
// each one. Checkpoints make the resubmission a resume, so a server killed
// mid-sweep picks its jobs back up at boot with no client involvement and
// still lands on bit-identical result digests. Requests whose results are
// already cached are stale stubs and are swept away. A stub that does not
// decode or no longer builds (e.g. one from an older request schema) is
// renamed to <digest>.rejected beside the others, so it never blocks boot
// and no later boot reads it again. It returns the number of jobs
// resubmitted and the number of stubs rejected.
func (s *Scheduler) ResumeInterrupted() (resumed, rejected int, err error) {
	entries, err := os.ReadDir(filepath.Join(s.opts.DataDir, "requests"))
	if err != nil {
		return 0, 0, fmt.Errorf("jobs: %w", err)
	}
	for _, e := range entries {
		digest, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		path := s.requestPath(digest)
		if _, err := s.loadResult(digest); err == nil {
			// Completed between the result write and the stub cleanup (a
			// crash in that window): the cache already serves it.
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var req sweepreq.Request
		err = json.Unmarshal(data, &req)
		started := false
		if err == nil {
			_, started, err = s.Submit(req)
		}
		switch {
		case errors.Is(err, ErrShuttingDown):
			// Not the stub's fault: the next boot resumes it.
		case err != nil:
			if os.Rename(path, strings.TrimSuffix(path, ".json")+".rejected") == nil {
				rejected++
			}
		case started:
			resumed++
		}
	}
	return resumed, rejected, nil
}

// Submit admits a request. The returned bool reports whether a sweep
// execution was (re)started: false means the submission joined a live job
// or was served entirely from the result cache.
func (s *Scheduler) Submit(req sweepreq.Request) (*Job, bool, error) {
	built, err := sweepreq.Build(req)
	if err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrShuttingDown
	}
	if j, ok := s.jobs[built.Digest]; ok {
		j.mu.Lock()
		st := j.state
		if !st.terminal() || st == StateDone {
			j.mu.Unlock()
			return j, false, nil
		}
		// Failed or stopped: restart with a fresh stop channel and event
		// epoch; the checkpoint (if any) makes the restart a resume.
		j.stop = make(chan struct{})
		j.setStateLocked(StateQueued, Event{Type: "queued"})
		j.mu.Unlock()
		s.persistRequest(built.Digest, req)
		s.launch(j)
		return j, true, nil
	}

	j := newJob(built.Exp, built)
	s.jobs[built.Digest] = j
	if cached, err := s.loadResult(built.Digest); err == nil && cached.ConfigDigest == built.Digest {
		// A cached result that does not encode is a miss: the sweep
		// runs again and rewrites it.
		if j.completeFromCache(cached) == nil {
			return j, false, nil
		}
	}
	j.appendEvent(Event{Type: "queued"})
	s.persistRequest(built.Digest, req)
	s.launch(j)
	return j, true, nil
}

// Get returns the job for a config digest.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List snapshots every job's status, newest submission first; jobs
// submitted at the same instant list in digest order.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	js := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	out := make([]Status, len(js))
	for i, j := range js {
		out[i] = j.Status()
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].SubmittedAt.Equal(out[b].SubmittedAt) {
			return out[a].SubmittedAt.After(out[b].SubmittedAt)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// StopJob requests a graceful stop of a queued or running job.
func (s *Scheduler) StopJob(id string) bool {
	j, ok := s.Get(id)
	if !ok {
		return false
	}
	j.requestStop()
	return true
}

// Stop begins shutdown: no new submissions, every live job is asked to
// stop at its next chunk boundary (committing a final checkpoint), and
// Stop returns when all job goroutines have drained.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	for _, j := range s.jobs {
		j.requestStop()
	}
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.gcStop)
	}
	s.gcWG.Wait()
	s.wg.Wait()
}

// launch starts the job goroutine; the caller holds s.mu.
func (s *Scheduler) launch(j *Job) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-j.stopChan():
			j.setState(StateStopped, Event{Type: "stopped"})
			return
		}
		s.run(j)
	}()
}

// run executes the sweep with checkpointed resume and streams events.
func (s *Scheduler) run(j *Job) {
	s.sweepsStarted.Add(1)
	j.setState(StateRunning, Event{Type: "running", Total: j.built.Instances})

	ckPath := s.checkpointPath(j.Digest)
	// Partial watermark, owned by the sweep's committer goroutine.
	last := -1

	// Progress throttle: at most ~200 events per sweep plus the final one.
	step := j.built.Instances / 200
	if step < 1 {
		step = 1
	}
	res, err := j.built.Run(sweepreq.RunOpts{
		Progress: func(done, total int) {
			if done%step == 0 || done == total {
				j.progress(done, total)
			}
		},
		Checkpoint: &volatile.CheckpointConfig{
			Path:   ckPath,
			Every:  s.opts.CheckpointEvery,
			Resume: true, // resubmit-after-restart IS the resume path
			// Each write that advances the watermark through a strict prefix
			// streams the committed aggregates; done carries the full result.
			OnSave: func(st *volatile.CheckpointStatus) {
				if st.CommittedChunks <= last || st.CommittedChunks >= st.Chunks {
					return
				}
				last = st.CommittedChunks
				top := st.Partial.Overall
				if len(top) > 5 {
					top = top[:5]
				}
				j.appendEvent(Event{
					Type:            "partial",
					CommittedChunks: st.CommittedChunks,
					Chunks:          st.Chunks,
					Instances:       st.Partial.Instances,
					Top:             top,
				})
			},
		},
		Stop: j.stopChan(),
	})

	var ie *volatile.InterruptedError
	switch {
	case errors.As(err, &ie):
		j.setState(StateStopped, Event{Type: "stopped", CommittedChunks: ie.Committed, Chunks: ie.Chunks})
	case err != nil:
		j.setState(StateFailed, Event{Type: "failed", Error: err.Error()})
	default:
		cached := &CachedResult{
			ConfigDigest:    j.Digest,
			ResultDigest:    res.Digest(),
			Exp:             j.Exp,
			Instances:       res.Instances,
			Censored:        res.Censored,
			FailedInstances: res.FailedInstances,
			Overall:         res.Overall,
			Format:          res.Format(),
			Warnings:        res.Warnings,
			CompletedAt:     time.Now().UTC(),
		}
		data, err := encodeResult(cached)
		if err == nil {
			err = s.storeResult(j.Digest, data)
		}
		if err != nil {
			j.setState(StateFailed, Event{Type: "failed", Error: err.Error()})
			return
		}
		// The checkpoint and request stub are subsumed by the cached
		// result; keep the data dir from accumulating one of each per
		// completed sweep.
		os.Remove(ckPath)
		os.Remove(s.requestPath(j.Digest))
		j.setResult(cached, data)
		j.setState(StateDone, Event{
			Type: "done", Done: res.Instances, Total: j.built.Instances,
			Instances: res.Instances, ResultDigest: cached.ResultDigest,
		})
	}
}

// encodeResult renders a cached result the one way it is stored and
// served: two-space-indented JSON ending in a newline.
func encodeResult(c *CachedResult) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		return nil, fmt.Errorf("jobs: encoding result %s: %w", c.ConfigDigest, err)
	}
	return b.Bytes(), nil
}

// storeResult durably writes a result's encoding to results/<digest>.json.
func (s *Scheduler) storeResult(digest string, data []byte) error {
	return atomicio.WriteFile(s.resultPath(digest), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func (s *Scheduler) loadResult(digest string) (*CachedResult, error) {
	data, err := os.ReadFile(s.resultPath(digest))
	if err != nil {
		return nil, err
	}
	var c CachedResult
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("jobs: corrupt cached result %s: %w", digest, err)
	}
	return &c, nil
}
