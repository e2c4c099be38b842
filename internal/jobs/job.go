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

	mu          sync.Mutex
	cond        *sync.Cond
	state       State
	events      []Event
	stop        chan struct{}
	subs        int // live Subscribe pumps; results-TTL eviction skips jobs with any
	done, total int
	result      *CachedResult
	// resultJSON is result encoded once, when it is installed: the bytes
	// of results/<digest>.json and of every GET /jobs/{id}/result.
	resultJSON  []byte
	submittedAt time.Time
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
	st := Status{
		ID:          j.Digest,
		Exp:         j.Exp,
		State:       j.state,
		Done:        j.done,
		Total:       j.total,
		SubmittedAt: j.submittedAt,
	}
	if j.result != nil {
		st.ResultDigest = j.result.ResultDigest
	}
	if j.state == StateFailed {
		// A terminal event is always the last in the log.
		st.Error = j.events[len(j.events)-1].Error
	}
	return st
}

// Result returns the in-memory cached result, if the job is done.
func (j *Job) Result() (*CachedResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.result != nil
}

// ResultJSON returns the cached result's JSON encoding, if the job is
// done: the bytes stored in results/<digest>.json. Callers must not
// modify them.
func (j *Job) ResultJSON() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resultJSON, j.resultJSON != nil
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
	if !isClosed(j.stop) && !j.state.terminal() {
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

// setState transitions the state and logs the transition event; a
// terminal state's event closes subscriber streams.
func (j *Job) setState(st State, ev Event) {
	j.mu.Lock()
	j.setStateLocked(st, ev)
	j.mu.Unlock()
}

func (j *Job) setStateLocked(st State, ev Event) {
	j.state = st
	j.appendEventLocked(ev)
}

// progress records instance progress (throttled by the caller).
func (j *Job) progress(done, total int) {
	j.mu.Lock()
	j.done, j.total = done, total
	j.appendEventLocked(Event{Type: "progress", Done: done, Total: total})
	j.mu.Unlock()
}

// setResult installs the completed result and its encoding before the
// done event fires.
func (j *Job) setResult(c *CachedResult, data []byte) {
	j.mu.Lock()
	j.result, j.resultJSON = c, data
	j.mu.Unlock()
}

// completeFromCache short-circuits a job whose result is already cached:
// it is born done, with a replayable queued→done history. It encodes the
// result once for every later GET; on an encoding error it leaves the job
// untouched.
func (j *Job) completeFromCache(c *CachedResult) error {
	data, err := encodeResult(c)
	if err != nil {
		return err
	}
	j.mu.Lock()
	j.result, j.resultJSON = c, data
	j.done, j.total = c.Instances, c.Instances
	j.appendEventLocked(Event{Type: "queued"})
	j.state = StateDone
	j.appendEventLocked(Event{
		Type: "done", Done: c.Instances, Total: c.Instances,
		Instances: c.Instances, ResultDigest: c.ResultDigest,
	})
	j.mu.Unlock()
	return nil
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
