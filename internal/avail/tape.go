package avail

import (
	"encoding/binary"
	"fmt"

	"repro/internal/losertree"
)

// Tape records the availability trajectories of a platform once, as one
// merged, (slot, worker)-ordered log of transitions, so that several
// consumers can replay the identical world. The paper compares heuristics
// with common random numbers: every contender on one (scenario, trial)
// instance faces the same trajectories, so sampling them once — and merging
// the per-processor streams once — and replaying the log to each contender
// changes no result, only the cost.
//
// The tape keeps the slot-0 states apart (Initial) and a loser tree whose
// leaf i holds the slot of source i's next change, so its (slot, worker)
// minimum is the next transition; a source whose state holds to the
// horizon gets the sentinel key. The log is extended lazily, one
// transition at a time, when a Reader reads past what is recorded: the
// tree's minimum is appended, and its source is asked for its next change
// only when the log is extended again. Same-slot transitions are logged in
// ascending worker order. Nothing at or beyond the horizon given to Reset
// is recorded, so consumers that stop at the horizon (the engine stops at
// Params.EffectiveMaxSlots) see exactly the source trajectories.
//
// A per-slot tape records what the sources' Next yields slot by slot: it
// steps each source until its state changes, except a replayed vector,
// whose runs are exactly its per-slot sequence and are read run by run
// (stepping it slot by slot would cost the whole horizon once it holds its
// last state). A transition tape records what the sources' NextTransition
// yields, which for a Markov3Process is the sojourn-sampled event-mode
// trajectory. The tape owns its sources from Reset on: nothing else may
// draw from them, or the recorded world would skip states.
type Tape struct {
	limit int
	// srcs are the recorded sources; initial[i] is source i's slot-0 state
	// and pend[i] the state it enters at its next change; keys is the
	// build buffer of next, the tree over those changes.
	srcs    []tapeSource
	initial []State
	pend    []State
	keys    []uint64
	next    losertree.Tree
	// minLogged reports that next's minimum is already in the log and its
	// source still owes its next change.
	minLogged bool
	// The log holds one entry per transition — uvarint(slot - previous
	// entry's slot) then uvarint(worker<<2 | state) — in chunks of
	// logChunk bytes that no entry straddles, so it grows without copying
	// or leaving garbage behind: chunks[:used] hold the recording, the rest
	// wait for the next one. last is the slot of the last entry.
	chunks [][]byte
	used   int
	last   int
	// err is the first Trajectory contract violation met while recording.
	err error
}

// logChunk is the size of a log chunk; maxEntry bounds one encoded entry.
const (
	logChunk = 8 << 10
	maxEntry = 2 * binary.MaxVarintLen64
)

// tapeSource is one recorded source: tr is set when it is read run by run.
type tapeSource struct {
	p  Process
	tr Trajectory
}

// Reset points the tape at one source per processor, recording per slot
// (Next) or per transition (NextTransition), capped at limit slots, and
// draws every source's slot-0 state and next change. It reuses the
// previous recording's storage. A transition tape needs every source to
// implement Trajectory and panics otherwise; a source that breaks the
// Trajectory contract (first run at slot 0, strictly increasing run starts)
// makes every Reader of the tape return an error.
func (t *Tape) Reset(srcs []Process, perSlot bool, limit int) {
	p := len(srcs)
	t.limit, t.minLogged, t.err = limit, false, nil
	t.used, t.last = 0, 0
	if cap(t.srcs) < p {
		t.srcs = make([]tapeSource, p)
		t.initial = make([]State, p)
		t.pend = make([]State, p)
		t.keys = make([]uint64, p)
	}
	t.srcs, t.initial, t.pend, t.keys = t.srcs[:p], t.initial[:p], t.pend[:p], t.keys[:p]
	for i, src := range srcs {
		ts := tapeSource{p: src}
		if perSlot {
			if v, ok := src.(*VectorProcess); ok {
				ts.tr = v
			}
		} else if tr, ok := src.(Trajectory); ok {
			ts.tr = tr
		} else {
			panic(fmt.Sprintf("avail: transition tape source %d (%T) is not a Trajectory", i, src))
		}
		t.srcs[i] = ts
		s := State(0)
		if ts.tr != nil {
			var at int
			if s, at = ts.tr.NextTransition(); at != 0 {
				t.err = fmt.Errorf("availability trajectory %d: first transition at slot %d, want 0", i, at)
				return
			}
		} else {
			s = src.Next()
		}
		t.initial[i], t.pend[i] = s, s
		t.keys[i] = t.draw(i, 0)
		if t.err != nil {
			return
		}
	}
	t.next.Init(t.keys)
}

// draw draws source i's next change after its change at slot prev into
// pend[i] and returns its slot as a key of next: the tree orders
// transitions by slot, and same-slot ones by ascending worker, so
// simultaneous transitions always apply in the same order and crash event
// streams stay bit-identical across modes on identical trajectories. It
// returns the sentinel when the source's state holds to the horizon or it
// broke the Trajectory contract (t.err).
func (t *Tape) draw(i, prev int) uint64 {
	src := &t.srcs[i]
	if src.tr != nil {
		s, at := src.tr.NextTransition()
		if at >= t.limit {
			return losertree.Sentinel
		}
		if at <= prev {
			t.err = fmt.Errorf("availability trajectory %d: transition slot %d not after %d", i, at, prev)
			return losertree.Sentinel
		}
		t.pend[i] = s
		return uint64(at)
	}
	cur := t.pend[i]
	for slot := prev + 1; slot < t.limit; slot++ {
		if s := src.p.Next(); s != cur {
			t.pend[i] = s
			return uint64(slot)
		}
	}
	return losertree.Sentinel
}

// extend appends the next merged transition to the log. It returns false
// when no source changes again before the horizon, or recording failed.
func (t *Tape) extend() bool {
	if t.err != nil {
		return false
	}
	if t.minLogged {
		t.minLogged = false
		worker, slot := t.next.Min()
		t.next.ReplaceMin(t.draw(worker, int(slot)))
		if t.err != nil {
			return false
		}
	}
	worker, key := t.next.Min()
	if key == losertree.Sentinel {
		return false
	}
	slot := int(key)
	if t.used == 0 || len(t.chunks[t.used-1])+maxEntry > logChunk {
		if t.used == len(t.chunks) {
			t.chunks = append(t.chunks, make([]byte, 0, logChunk))
		}
		t.chunks[t.used] = t.chunks[t.used][:0]
		t.used++
	}
	c := &t.chunks[t.used-1]
	*c = binary.AppendUvarint(*c, uint64(slot-t.last))
	*c = binary.AppendUvarint(*c, uint64(worker)<<2|uint64(t.pend[worker]))
	t.last = slot
	t.minLogged = true
	return true
}

// P returns the number of recorded processors.
func (t *Tape) P() int { return len(t.srcs) }

// Limit returns the horizon the tape records to.
func (t *Tape) Limit() int { return t.limit }

// Initial returns every processor's slot-0 state, indexed by processor.
// The slice is valid until the next Reset.
func (t *Tape) Initial() []State { return t.initial }

// Reader replays a Tape's log: the transitions after slot 0 in (slot,
// worker) order. Any number of readers may replay one tape, each at its own
// position; a reader that reads past the recording extends it for all.
type Reader struct {
	t *Tape
	// chunk and off locate the next entry in the log.
	chunk, off int
	// slot, worker and state are the current transition; slot is Forever
	// once the log holds no further transition.
	slot, worker int
	state        State
}

// Rewind positions r at the first transition of t.
func (r *Reader) Rewind(t *Tape) error {
	*r = Reader{t: t}
	return r.Advance()
}

// Slot returns the slot of the current transition, or Forever.
func (r *Reader) Slot() int { return r.slot }

// Worker returns the processor the current transition changes.
func (r *Reader) Worker() int { return r.worker }

// State returns the state the current transition enters.
func (r *Reader) State() State { return r.state }

// Advance moves r to the next transition, extending the log as needed. It
// returns the tape's error when a source broke the Trajectory contract.
func (r *Reader) Advance() error {
	t := r.t
	for r.chunk == t.used || r.off == len(t.chunks[r.chunk]) {
		if r.chunk+1 < t.used {
			r.chunk, r.off = r.chunk+1, 0
		} else if !t.extend() {
			r.slot = Forever
			return t.err
		}
	}
	delta := r.uvarint()
	code := r.uvarint()
	r.slot += delta
	r.worker, r.state = code>>2, State(code&3)
	return nil
}

// uvarint decodes the log entry field at r.off; most fit in one byte.
func (r *Reader) uvarint() int {
	c := r.t.chunks[r.chunk]
	if b := c[r.off]; b < 0x80 {
		r.off++
		return int(b)
	}
	v, n := binary.Uvarint(c[r.off:])
	r.off += n
	return int(v)
}
