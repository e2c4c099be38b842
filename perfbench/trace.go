package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/avail"
	"repro/internal/sim"
)

// span is one traced call into a layer: its name, start and end in
// nanoseconds since the trace began, and the span that caused it (0 for a
// root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ds []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, x := range t.durations(name) {
		d += x
	}
	return d
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pickSampleEvery is how often the scheduler decorator times a Pick. Every
// call is counted; timing one in sixteen keeps the clock reads from
// dominating the cheap picks they measure.
const pickSampleEvery = 16

// coreCounters is what the scheduler decorator records.
type coreCounters struct {
	picks, declines, cancels int64
	sampled                  int64
	sampledTime              time.Duration
}

// pickTime estimates the total time spent in Pick from the sampled calls.
func (c *coreCounters) pickTime() time.Duration {
	if c.sampled == 0 {
		return 0
	}
	return time.Duration(float64(c.sampledTime) * float64(c.picks) / float64(c.sampled))
}

// countingScheduler counts and samples calls into a sim.Scheduler. The
// engine type-asserts sim.Canceller (the event clock stops skipping quiet
// spans for cancellers) and volatile's runner pools only sim.Poolable
// schedulers, so wrapScheduler returns a type with exactly the optional
// interfaces the inner scheduler has.
type countingScheduler struct {
	inner sim.Scheduler
	c     *coreCounters
}

func (s *countingScheduler) Name() string { return s.inner.Name() }

func (s *countingScheduler) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	s.c.picks++
	var q int
	if s.c.picks%pickSampleEvery == 0 {
		t0 := time.Now()
		q = s.inner.Pick(v, eligible, rs, ti)
		s.c.sampledTime += time.Since(t0)
		s.c.sampled++
	} else {
		q = s.inner.Pick(v, eligible, rs, ti)
	}
	if q == sim.Decline {
		s.c.declines++
	}
	return q
}

func (s *countingScheduler) cancel(v *sim.View) []int {
	ids := s.inner.(sim.Canceller).Cancel(v)
	s.c.cancels += int64(len(ids))
	return ids
}

func (s *countingScheduler) poolSafe() bool { return sim.PoolSafe(s.inner) }

type poolableScheduler struct{ *countingScheduler }

func (s poolableScheduler) PoolSafe() bool { return s.poolSafe() }

type cancellingScheduler struct{ *countingScheduler }

func (s cancellingScheduler) Cancel(v *sim.View) []int { return s.cancel(v) }

type poolableCancellingScheduler struct{ *countingScheduler }

func (s poolableCancellingScheduler) PoolSafe() bool           { return s.poolSafe() }
func (s poolableCancellingScheduler) Cancel(v *sim.View) []int { return s.cancel(v) }

func wrapScheduler(inner sim.Scheduler, c *coreCounters) sim.Scheduler {
	base := &countingScheduler{inner: inner, c: c}
	_, canceller := inner.(sim.Canceller)
	_, poolable := inner.(sim.Poolable)
	switch {
	case canceller && poolable:
		return poolableCancellingScheduler{base}
	case canceller:
		return cancellingScheduler{base}
	case poolable:
		return poolableScheduler{base}
	default:
		return base
	}
}

// countingProcess counts availability samples drawn from an avail.Process.
// Event mode requires avail.Trajectory, so wrapProcess keeps it exactly when
// the inner process has it.
type countingProcess struct {
	inner avail.Process
	n     *int64
}

func (p *countingProcess) Next() avail.State {
	*p.n++
	return p.inner.Next()
}

type countingTrajectory struct {
	countingProcess
	tr avail.Trajectory
}

func (p *countingTrajectory) NextTransition() (avail.State, int) {
	*p.n++
	return p.tr.NextTransition()
}

func wrapProcess(inner avail.Process, n *int64) avail.Process {
	if tr, ok := inner.(avail.Trajectory); ok {
		return &countingTrajectory{countingProcess{inner, n}, tr}
	}
	return &countingProcess{inner, n}
}
