package avail

import "fmt"

// Tape records the availability trajectories of a platform once, as one
// run-length log of (startSlot, state) runs per processor, so that several
// consumers can replay the identical world. The paper compares heuristics
// with common random numbers: every contender on one (scenario, trial)
// instance faces the same trajectories, so sampling them once and replaying
// them to each contender changes no result, only the cost.
//
// Logs are extended lazily, one run at a time, when a cursor reads past
// what is recorded, and never past the horizon given to Reset: a run that
// would start at or beyond it is not recorded, and the last recorded run
// holds Forever. Consumers that stop at the horizon (the engines stop at
// Params.EffectiveMaxSlots) therefore see exactly the source trajectory.
//
// A per-slot tape records what the sources' Next yields slot by slot: it
// steps each source until its state changes, so its runs are exactly the
// slot-mode trajectory. A transition tape records what the sources'
// NextTransition yields, which for a Markov3Process is the sojourn-sampled
// event-mode trajectory. The tape owns its sources from Reset on: nothing
// else may draw from them, or the recorded world would skip states.
type Tape struct {
	perSlot bool
	limit   int
	logs    []tapeLog
	// free holds overflow chunks released by Reset, for reuse.
	free []*tapeChunk
	// long holds the lengths of closed runs too long for a tapeRun.
	long map[longRun]int
	// procs is the pooled replay set Replay hands out.
	procs []Process
}

// tapeRun is one recorded run in 16 bits: its state in the low two bits
// and its length in slots above them. The length is 0 while the run is the
// last one recorded, and for a closed run too long to pack, whose length
// Tape.long then holds. Runs are read in order, so a cursor finds the start
// slot of each run by summing the lengths before it; a few thousand runs
// per processor cost a few kilobytes.
type tapeRun uint16

// maxPackedLen is the longest run length a tapeRun holds.
const maxPackedLen = 1<<14 - 1

func (r tapeRun) state() State { return State(r & 3) }

// longRun names run k of a log.
type longRun struct {
	lg *tapeLog
	k  int
}

// A log keeps its first firstRuns runs inline, so short recordings (a
// large platform's processors see a handful of transitions per run) cost
// no allocation, and the rest in fixed chunks of chunkRuns runs that the
// tape recycles across recordings, so a log grows without copying or
// leaving garbage behind.
const (
	firstRuns = 16
	chunkRuns = 32
)

type tapeChunk [chunkRuns]tapeRun

// tapeLog is one processor's recording.
type tapeLog struct {
	// The log's pooled replay cursor and what a replay reads of every run
	// come first, so that replaying a run mostly touches one cache line.
	cursor Cursor
	// n runs are recorded: the first ones inline, the rest in chunks.
	n     int
	first [firstRuns]tapeRun
	more  []*tapeChunk
	t     *Tape
	src   Process
	// byRuns records src through NextTransition: on a transition tape, and
	// on a per-slot tape for a source whose runs are exactly its per-slot
	// sequence (see SlotTrajectory). Otherwise the tape steps src.Next.
	byRuns bool
	// done reports that the last recorded run holds for the rest of the
	// horizon.
	done bool
	// last is the start slot of the last recorded run.
	last int
	// next is the next slot a per-slot source emits; slots before it are
	// recorded.
	next int
}

// run returns recorded run k.
func (lg *tapeLog) run(k int) *tapeRun {
	if k < firstRuns {
		return &lg.first[k]
	}
	k -= firstRuns
	return &lg.more[k/chunkRuns][k%chunkRuns]
}

// runLen returns the length of closed run k.
func (lg *tapeLog) runLen(k int) int {
	if l := int(*lg.run(k) >> 2); l != 0 {
		return l
	}
	return lg.t.long[longRun{lg, k}]
}

// push records a run of state s starting at slot at, closing the previous
// run.
func (lg *tapeLog) push(at int, s State) {
	t := lg.t
	if lg.n > 0 {
		if l := at - lg.last; l <= maxPackedLen {
			*lg.run(lg.n - 1) |= tapeRun(l) << 2
		} else {
			if t.long == nil {
				t.long = make(map[longRun]int)
			}
			t.long[longRun{lg, lg.n - 1}] = l
		}
	}
	if k := lg.n - firstRuns; k >= 0 && k%chunkRuns == 0 {
		if f := len(t.free); f > 0 {
			lg.more = append(lg.more, t.free[f-1])
			t.free = t.free[:f-1]
		} else {
			lg.more = append(lg.more, new(tapeChunk))
		}
	}
	*lg.run(lg.n) = tapeRun(s)
	lg.n++
	lg.last = at
}

// Reset points the tape at one source per processor, recording per slot
// (Next) or per transition (NextTransition), capped at limit slots. It
// reuses the previous recording's storage. A transition tape needs every
// source to implement Trajectory and honour its contract (first run at
// slot 0, strictly increasing run starts); it panics otherwise.
func (t *Tape) Reset(srcs []Process, perSlot bool, limit int) {
	t.perSlot, t.limit = perSlot, limit
	p := len(srcs)
	if cap(t.logs) < p {
		logs := make([]tapeLog, p)
		copy(logs, t.logs[:cap(t.logs)])
		t.logs = logs
	}
	t.logs = t.logs[:p]
	for i := range t.logs[:cap(t.logs)] {
		lg := &t.logs[:cap(t.logs)][i]
		t.free = append(t.free, lg.more...)
		*lg = tapeLog{more: lg.more[:0], t: t}
	}
	clear(t.long)
	for i, src := range srcs {
		lg := &t.logs[i]
		lg.src = src
		if perSlot {
			_, lg.byRuns = SlotTrajectory(src)
			continue
		}
		if _, ok := src.(Trajectory); !ok {
			panic(fmt.Sprintf("avail: transition tape source %d (%T) is not a Trajectory", i, src))
		}
		lg.byRuns = true
	}
}

// Cursor returns a new replay cursor for processor i, positioned at slot 0.
func (t *Tape) Cursor(i int) *Cursor {
	return &Cursor{lg: &t.logs[i]}
}

// Replay rewinds the tape's pooled cursors, one per processor, and returns
// them as the process slice an engine takes. The slice and its cursors are
// valid until the next Replay or Reset.
func (t *Tape) Replay() []Process {
	p := len(t.logs)
	if cap(t.procs) < p {
		t.procs = make([]Process, p)
	}
	t.procs = t.procs[:p]
	for i := range t.logs {
		lg := &t.logs[i]
		lg.cursor = Cursor{lg: lg}
		t.procs[i] = &lg.cursor
	}
	return t.procs
}

// extend records one more run of lg, or marks it done when its last run
// holds to the horizon.
func (lg *tapeLog) extend() {
	if lg.byRuns {
		s, at := lg.src.(Trajectory).NextTransition()
		if lg.n == 0 && at != 0 || lg.n > 0 && at <= lg.last {
			panic(fmt.Sprintf("avail: tape source %T: run %d at slot %d, previous at %d", lg.src, lg.n, at, lg.last))
		}
		if at >= lg.t.limit && lg.n > 0 {
			lg.done = true
			return
		}
		lg.push(at, s)
		return
	}
	if lg.n == 0 {
		lg.push(0, lg.src.Next())
		lg.next = 1
		return
	}
	cur := lg.run(lg.n - 1).state()
	for lg.next < lg.t.limit {
		s := lg.src.Next()
		lg.next++
		if s != cur {
			lg.push(lg.next-1, s)
			return
		}
	}
	lg.done = true
}

// Cursor replays one processor's recording. It implements Trajectory: Next
// replays slot by slot (for per-slot consumers such as the batch engine),
// NextTransition run by run, and like any Trajectory a cursor is driven
// through one of the two. The zero position is slot 0.
type Cursor struct {
	lg *tapeLog
	// k is the next run to enter; the current run k-1 starts at slot at.
	k, at int
	// slot is the next slot Next returns; the current run holds until end.
	slot, end int
}

// has reports whether run k is recorded, extending the log as needed.
func (c *Cursor) has(k int) bool {
	for k >= c.lg.n {
		if c.lg.done {
			return false
		}
		c.lg.extend()
	}
	return true
}

// NextTransition implements Trajectory: the recorded runs in order, then
// the last state holding Forever.
func (c *Cursor) NextTransition() (State, int) {
	if !c.has(c.k) {
		return c.lg.run(c.lg.n - 1).state(), Forever
	}
	if c.k > 0 {
		c.at += c.lg.runLen(c.k - 1)
	}
	c.k++
	return c.lg.run(c.k - 1).state(), c.at
}

// Next implements Process: the recorded state of each slot in turn. Past
// the horizon it keeps returning the last recorded state.
func (c *Cursor) Next() State {
	for c.slot >= c.end {
		// Enter run k, which starts where the current run ends (run 0 is
		// always recorded; later ones were checked below).
		c.has(c.k)
		c.at = c.end
		c.k++
		if c.has(c.k) {
			c.end = c.at + c.lg.runLen(c.k-1)
		} else {
			c.end = Forever
		}
	}
	c.slot++
	return c.lg.run(c.k - 1).state()
}

// SlotTrajectory returns p's run-level view when its runs are exactly its
// per-slot Next sequence, and false otherwise. A cursor on a per-slot tape
// qualifies, and so does a replayed vector, whose runs are fixed (stepping
// it slot by slot would cost the whole horizon once it holds its last
// state). A Markov3Process does not: its NextTransition samples sojourns in
// closed form and so draws a different trajectory from the same stream.
// Neither does a cursor on a transition tape, whose runs were recorded that
// way. Slot-clock consumers record any other process through a per-slot
// Tape.
func SlotTrajectory(p Process) (Trajectory, bool) {
	switch p := p.(type) {
	case *VectorProcess:
		return p, true
	case *Cursor:
		return p, p.lg.t.perSlot
	}
	return nil, false
}
