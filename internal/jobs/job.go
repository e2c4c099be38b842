package jobs

import (
	"sync"
	"time"

	"repro/internal/sweepreq"
)

// Job is one admitted sweep: the config digest is its identity, the event
// log is its history. A Job outlives its execution — done/failed/stopped
// jobs stay in the table so late subscribers replay the full stream.
type Job struct {
	// Digest is the sweep's config digest and the job ID.
	Digest string
	// Exp names the experiment.
	Exp string

	built *sweepreq.Built

	mu           sync.Mutex
	cond         *sync.Cond
	state        State
	events       []Event
	stop         chan struct{}
	stopped      bool // requestStop is idempotent
	subs         int  // live Subscribe pumps; results-TTL eviction skips jobs with any
	done, total  int
	result       *CachedResult
	errText      string
	resultDigest string
	submittedAt  time.Time
}

func newJob(exp string, built *sweepreq.Built) *Job {
	j := &Job{
		Digest:      built.Digest,
		Exp:         exp,
		built:       built,
		state:       StateQueued,
		stop:        make(chan struct{}),
		total:       built.Instances,
		submittedAt: time.Now().UTC(),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// State returns the current lifecycle phase.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job for the list/get endpoints.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:           j.Digest,
		Exp:          j.Exp,
		State:        j.state,
		Done:         j.done,
		Total:        j.total,
		ResultDigest: j.resultDigest,
		Error:        j.errText,
		SubmittedAt:  j.submittedAt,
	}
}

// Result returns the in-memory cached result, if the job is done.
func (j *Job) Result() (*CachedResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.result != nil
}

// stopChan returns the current stop channel (a restart replaces it).
func (j *Job) stopChan() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stop
}

// requestStop closes the stop channel once; the sweep commits a final
// checkpoint at its next chunk boundary and returns *InterruptedError.
func (j *Job) requestStop() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.stopped && !j.state.terminal() {
		j.stopped = true
		close(j.stop)
	}
}

// appendEvent stamps a sequence number, appends and wakes subscribers.
func (j *Job) appendEvent(ev Event) {
	j.mu.Lock()
	j.appendEventLocked(ev)
	j.mu.Unlock()
}

func (j *Job) appendEventLocked(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	j.cond.Broadcast()
}

// setState transitions the state and logs the transition event.
func (j *Job) setState(st State, ev Event) {
	j.mu.Lock()
	j.setStateLocked(st, ev)
	j.mu.Unlock()
}

func (j *Job) setStateLocked(st State, ev Event) {
	j.state = st
	if st == StateQueued {
		// restart: the previous terminal outcome no longer applies
		j.stopped = false
		j.errText = ""
	}
	j.appendEventLocked(ev)
}

// progress records instance progress (throttled by the caller).
func (j *Job) progress(done, total int) {
	j.mu.Lock()
	j.done, j.total = done, total
	j.appendEventLocked(Event{Type: "progress", Done: done, Total: total})
	j.mu.Unlock()
}

// finish records a terminal state; the event closes subscriber streams.
func (j *Job) finish(st State, ev Event) {
	j.mu.Lock()
	if ev.Error != "" {
		j.errText = ev.Error
	}
	if ev.ResultDigest != "" {
		j.resultDigest = ev.ResultDigest
	}
	j.setStateLocked(st, ev)
	j.mu.Unlock()
}

// setResult installs the completed result before the done event fires.
func (j *Job) setResult(c *CachedResult) {
	j.mu.Lock()
	j.result = c
	j.resultDigest = c.ResultDigest
	j.mu.Unlock()
}

// completeFromCache short-circuits a job whose result is already cached:
// it is born done, with a replayable queued→done history.
func (j *Job) completeFromCache(c *CachedResult) {
	j.mu.Lock()
	j.result = c
	j.resultDigest = c.ResultDigest
	j.done, j.total = c.Instances, c.Instances
	j.appendEventLocked(Event{Type: "queued"})
	j.state = StateDone
	j.appendEventLocked(Event{
		Type: "done", Done: c.Instances, Total: c.Instances,
		Instances: c.Instances, ResultDigest: c.ResultDigest,
	})
	j.mu.Unlock()
}

// hasSubscribers reports whether any Subscribe pump is still attached.
func (j *Job) hasSubscribers() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.subs > 0
}

// Subscribe replays the job's event log from the start and then follows it
// live; the channel closes after the terminal event (or on cancel). Safe to
// call at any point in the job's life, including after completion. While a
// subscriber is attached the job is pinned against results-TTL eviction:
// the channel is unbuffered, so the pin holds until the consumer has
// received the last event or cancelled.
func (j *Job) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event)
	cancelCh := make(chan struct{})
	var cancelOnce sync.Once
	cancel := func() {
		cancelOnce.Do(func() {
			close(cancelCh)
			// Wake the pump if it is parked in cond.Wait.
			j.mu.Lock()
			j.cond.Broadcast()
			j.mu.Unlock()
		})
	}
	j.mu.Lock()
	j.subs++
	j.mu.Unlock()
	go func() {
		// Deferred LIFO: the subscriber count drops before the channel
		// closes, so a drained-to-close stream implies the pin is released.
		defer close(ch)
		defer func() {
			j.mu.Lock()
			j.subs--
			j.mu.Unlock()
		}()
		next := 0
		for {
			j.mu.Lock()
			for next >= len(j.events) && !j.state.terminal() && !isClosed(cancelCh) {
				j.cond.Wait()
			}
			batch := append([]Event(nil), j.events[next:]...)
			next += len(batch)
			terminal := j.state.terminal() && next == len(j.events)
			j.mu.Unlock()
			for _, ev := range batch {
				select {
				case ch <- ev:
				case <-cancelCh:
					return
				}
			}
			if terminal || isClosed(cancelCh) {
				return
			}
		}
	}()
	return ch, cancel
}

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
