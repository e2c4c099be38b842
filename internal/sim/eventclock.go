package sim

import "fmt"

// This file is the engine's clock. Two mechanisms keep per-slot costs flat:
//
//   - availability advances by replaying one merged transition log
//     (avail.Tape) on both time bases: the tape merges every processor's
//     changes into one (slot, worker)-ordered log, so advancing states
//     costs O(changes) per slot instead of O(P), and every contender of an
//     instance replays the log its first run recorded. The time bases
//     differ only in what the tape records: event mode each process's own
//     NextTransition, which samples sojourns in closed form; slot mode the
//     per-slot Next sequence;
//
//   - in event mode only, quiet spans are skipped: when a finished slot
//     mutated no scheduler-visible state and no scheduler decision could
//     bind work on the frozen platform, every slot before the next logged
//     availability transition would replay identically, so the clock jumps
//     straight to that transition (nextSlot). Slot mode executes every
//     slot, because skipping would change the random family's RNG use.
//
// All per-slot mutation sites (applyState's crash handling, the dropCopies
// removal path, tracker updates, dirty marks, metrics) are shared by both
// time bases — event mode only changes when they run, never what they do.

// initClock points the clock at the run's tape after reset — cfg.Tape, or
// the engine-owned tape recording cfg.Procs up to the horizon — rewinds the
// log reader to the first transition after slot 0 and applies every
// worker's slot-0 state directly, in ascending worker order. Workers
// whose slot-0 state holds Forever (a permanently-down volunteer, a
// recorded vector past its end) never appear in the log at all.
func (e *engine) initClock(maxSlots int) error {
	tape := e.cfg.Tape
	if tape == nil {
		e.tape.Reset(e.cfg.Procs, e.cfg.Mode == ModeSlot, maxSlots)
		tape = &e.tape
	}
	if err := e.log.Rewind(tape); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	for i, s := range tape.Initial() {
		if s != e.states[i] {
			e.applyState(i, s)
		}
	}
	_, canceller := e.cfg.Scheduler.(Canceller)
	e.skipQuiet = e.cfg.Mode == ModeEvent && !canceller
	return nil
}

// applyTransitions applies the availability transitions the log holds for
// the current slot. Between logged transitions a worker's state is
// constant, so slots with no due entry leave every state untouched — the
// same states a per-slot scan of every worker would compute, at O(changes)
// instead of O(P) cost.
func (e *engine) applyTransitions() error {
	for e.log.Slot() <= e.slot {
		if i, next := e.log.Worker(), e.log.State(); next != e.states[i] {
			e.applyState(i, next)
		}
		if err := e.log.Advance(); err != nil {
			return fmt.Errorf("sim: %w", err)
		}
	}
	return nil
}

// nextSlot returns the slot the run executes after the current one. Slot
// mode always advances by one (skipQuiet is event-only). Event mode jumps
// over quiet spans: between logged availability transitions the platform
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
	target := min(e.log.Slot(), maxSlots)
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
	if !e.trk.pending.empty() {
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
