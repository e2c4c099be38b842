package sim

import (
	"fmt"

	"repro/internal/avail"
)

// This file is the engine's clock. Two mechanisms keep per-slot costs flat:
//
//   - availability advances through one transition heap on both time
//     bases: each processor's run-level trajectory (avail.Trajectory)
//     yields (state, startSlot) runs, queued on a (slot, worker) min-heap,
//     so advancing states costs O(changes) per slot instead of O(P). The
//     time bases differ only in which runs they read (initClock): event
//     mode reads each process's own NextTransition, which samples sojourns
//     in closed form; slot mode reads runs that are exactly the per-slot
//     Next sequence — a per-slot tape cursor or vector as given, any other
//     process recorded through the engine-owned per-slot tape;
//
//   - in event mode only, quiet spans are skipped: when a finished slot
//     mutated no scheduler-visible state and no scheduler decision could
//     bind work on the frozen platform, every slot before the next queued
//     availability transition would replay identically, so the clock jumps
//     straight to that transition (nextSlot). Slot mode executes every
//     slot, because skipping would change the random family's RNG use.
//
// All per-slot mutation sites (applyState's crash handling, the dropCopies
// removal path, tracker updates, dirty marks, metrics) are shared by both
// time bases — event mode only changes when they run, never what they do.

// transitionHeap is a binary min-heap of pending availability transitions
// ordered by (slot, worker). Same-slot entries pop in ascending worker
// order, so simultaneous transitions always apply in the same order and
// crash event streams stay bit-identical across modes on identical
// trajectories. Sifts move a hole, writing each displaced entry once.
type transitionHeap struct{ q []transition }

// transition is one queued availability change: worker enters its pending
// state at slot.
type transition struct{ slot, worker int }

func (a transition) less(b transition) bool {
	return a.slot < b.slot || (a.slot == b.slot && a.worker < b.worker)
}

func (h *transitionHeap) reset() { h.q = h.q[:0] }

func (h *transitionHeap) push(t transition) {
	h.q = append(h.q, t)
	i := len(h.q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(h.q[parent]) {
			break
		}
		h.q[i] = h.q[parent]
		i = parent
	}
	h.q[i] = t
}

// min returns the earliest queued transition.
func (h *transitionHeap) min() (transition, bool) {
	if len(h.q) == 0 {
		return transition{}, false
	}
	return h.q[0], true
}

// pop removes and returns the root entry.
func (h *transitionHeap) pop() transition {
	root, last := h.q[0], h.q[len(h.q)-1]
	h.q = h.q[:len(h.q)-1]
	if len(h.q) > 0 {
		h.replaceTop(last)
	}
	return root
}

// replaceTop replaces the root entry with t and sifts it down as a hole:
// one sift where a pop followed by a push would take two.
func (h *transitionHeap) replaceTop(t transition) {
	n := len(h.q)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h.q[right].less(h.q[child]) {
			child = right
		}
		if !h.q[child].less(t) {
			break
		}
		h.q[i] = h.q[child]
		i = child
	}
	h.q[i] = t
}

// initClock sizes and fills the clock after reset: one trajectory per
// worker, its slot-0 state applied directly and its first real transition
// queued. Applying slot 0 here — in ascending worker order, the same order
// the queue would drain a slot-0 tie — keeps the heap free of the initial
// P-way tie, and workers whose slot-0 state holds Forever (a
// permanently-down volunteer, a recorded vector past its end) never enter
// the queue at all. That makes priming O(P) with per-worker O(1) instead
// of the O(P log P) push-pop churn a 100k-worker platform paid on its
// first slot. In event mode Config.validate has already checked every
// process implements avail.Trajectory; in slot mode the engine-owned tape
// records, up to the horizon, every process that is not already a run-level
// view of its per-slot sequence.
func (e *engine) initClock(maxSlots int) error {
	p := len(e.workers)
	if cap(e.trajs) < p {
		e.trajs = make([]avail.Trajectory, 0, p)
	}
	if cap(e.pendState) < p {
		e.pendState = make([]avail.State, p)
	}
	e.pendState = e.pendState[:p]
	var taped []avail.Process
	for i, proc := range e.cfg.Procs {
		var tr avail.Trajectory
		if e.cfg.Mode == ModeEvent {
			tr = proc.(avail.Trajectory)
		} else if st, ok := avail.SlotTrajectory(proc); ok {
			tr = st
		} else {
			if taped == nil {
				e.tape.Reset(e.cfg.Procs, true, maxSlots)
				taped = e.tape.Replay()
			}
			tr = taped[i].(avail.Trajectory)
		}
		e.trajs = append(e.trajs, tr)
		s, at := tr.NextTransition()
		if at != 0 {
			return fmt.Errorf("sim: availability trajectory %d: first transition at slot %d, want 0", i, at)
		}
		if s != e.states[i] {
			e.applyState(i, s)
		}
		ns, nat := tr.NextTransition()
		if nat == avail.Forever {
			continue // the worker's slot-0 state holds for the whole run
		}
		if nat <= 0 {
			return fmt.Errorf("sim: availability trajectory %d: transition slot %d not after 0", i, nat)
		}
		e.pendState[i] = ns
		e.evq.push(transition{nat, i})
	}
	_, canceller := e.cfg.Scheduler.(Canceller)
	e.skipQuiet = e.cfg.Mode == ModeEvent && !canceller
	return nil
}

// applyTransitions applies the availability transitions due at the
// current slot and refills the queue from the trajectories. Between queued
// transitions a worker's state is constant, so slots with no due entry
// leave every state untouched — the same states a per-slot scan of every
// worker would compute, at O(changes) instead of O(P) cost.
func (e *engine) applyTransitions() error {
	for t, ok := e.evq.min(); ok && t.slot <= e.slot; t, ok = e.evq.min() {
		i := t.worker
		next := e.pendState[i]
		if next != e.states[i] {
			e.applyState(i, next)
		}
		ns, nat := e.trajs[i].NextTransition()
		if nat == avail.Forever {
			e.evq.pop() // the worker's state holds for the rest of the run
			continue
		}
		if nat <= t.slot {
			return fmt.Errorf("sim: availability trajectory %d: transition slot %d not after %d", i, nat, t.slot)
		}
		e.pendState[i] = ns
		e.evq.replaceTop(transition{nat, i})
	}
	return nil
}

// nextSlot returns the slot the run executes after the current one. Slot
// mode always advances by one (skipQuiet is event-only). Event mode jumps
// over quiet spans: between queued availability transitions the platform
// is frozen except for computations grinding toward known completion
// slots, so when no chain on an UP worker can advance, no computation is
// about to emit its start event or finish, and canMaterialize rules out
// any new binding, every skipped slot would replay identically — same
// views, same scheduler picks, same evaporating plans — with each
// computing worker advancing by exactly one compute slot. The clock jumps
// to the earliest of the next transition, the earliest compute completion,
// and the horizon, bulk-applying the skipped compute progress. Observer
// reports for the span are replayed verbatim (reportQuietSpan).
func (e *engine) nextSlot(maxSlots int) int {
	// A chain still needing channel slots on an UP worker advances every
	// slot, which forces slot-by-slot execution.
	if !e.skipQuiet || e.upChains() > 0 {
		return e.slot + 1
	}
	target := maxSlots
	if t, ok := e.evq.min(); ok && t.slot < maxSlots {
		target = t.slot
	}
	if target <= e.slot+1 {
		return e.slot + 1
	}
	// Scan the frozen platform. A computation that has not started yet
	// emits EvComputeStart next slot, which forces slot-by-slot execution.
	// Running computations instead bound the jump by their completion slot:
	// the slot a copy finishes must execute normally. Only UP workers matter
	// here (a RECLAIMED worker does not compute), so the walk covers the UP
	// index — O(nUp), independent of the platform size once most of a
	// volunteer grid is DOWN.
	tprog := e.params.Tprog
	computing := 0
	for i := e.upSet.min(); i != noWorker; i = e.upSet.next(i) {
		w := &e.workers[i]
		if w.computing == nil || !w.hasProgram(tprog) {
			continue
		}
		if w.computing.computeDone == 0 {
			return e.slot + 1
		}
		computing++
		if end := e.slot + w.proc.W - w.computing.computeDone; end < target {
			target = end
		}
	}
	if target <= e.slot+1 || e.canMaterialize() {
		return e.slot + 1
	}
	if e.slowChecks {
		e.verifySkip(target)
	}
	// Bulk-replay the skipped slots' compute progress: each one advances
	// every computing worker by one UP compute slot without completing
	// (target stops at the earliest completion). The workers carry this
	// slot's dirty marks, so their views rebuild at target exactly as
	// slot-by-slot execution would leave them.
	if computing > 0 {
		delta := target - e.slot - 1
		for i := e.upSet.min(); i != noWorker; i = e.upSet.next(i) {
			w := &e.workers[i]
			if w.computing != nil && w.hasProgram(tprog) {
				w.computing.computeDone += delta
				e.markDirty(i)
			}
		}
		e.stats.ComputeSlots += int64(computing) * int64(delta)
	}
	if e.cfg.Observer != nil {
		e.reportQuietSpan(e.slot+1, target, computing)
	}
	return target
}

// canMaterialize conservatively decides whether any scheduler decision
// could bind a new copy while worker states stay frozen. It may answer
// true when the actual scheduler would bind nothing (costing an unskipped
// slot), but answers false only when no pick could materialize:
//
//   - a pending original binds only on an UP worker with a free incoming
//     slot, and any idle worker is also free, so with no free UP worker
//     neither originals nor replicas can bind;
//   - with no pending originals, replicas need the engine's gate (more UP
//     workers than remaining tasks, replication enabled), an idle UP
//     worker, and a live task below the copy cap (leastCovered, exact
//     outside rounds since schedule undoes the planning overlay).
//
// Channel capacity never blocks a quiet slot's binding: a chain on an UP
// worker would have advanced and dirtied the slot, so all Ncom >= 1
// channels are free.
//
// Every input is an incrementally maintained counter (reindexAvail) or an
// O(copyCap) bucket probe, so the check is O(1) in both P and m — it used
// to rescan all P workers on every quiet-skip attempt, which made skipping
// itself an O(P) per-slot cost (the verifySkip slow check still recounts
// the counters against raw state).
func (e *engine) canMaterialize() bool {
	if !e.trk.pendEmpty() {
		return e.nFreeUp > 0
	}
	if e.params.MaxReplicas == 0 || e.nIdleUp == 0 || e.nUp <= e.trk.remaining {
		return false
	}
	t, _ := e.trk.leastCovered(1 + e.params.MaxReplicas)
	return t != noTask
}

// reportQuietSpan replays the Observer reports for the skipped slots
// [from, to). A quiet slot's report is fully determined by state the skip
// preconditions freeze — no transfers, a constant set of computing
// workers, a constant UP count and cumulative completion count — so the
// replayed reports are identical to what slot-by-slot execution would
// emit.
func (e *engine) reportQuietSpan(from, to, computing int) {
	rep := SlotReport{
		Iteration:        e.iter,
		UpWorkers:        e.nUp,
		ComputingWorkers: computing,
		TasksCompleted:   e.stats.TasksCompleted,
	}
	for s := from; s < to; s++ {
		rep.Slot = s
		e.cfg.Observer(&rep)
	}
}
