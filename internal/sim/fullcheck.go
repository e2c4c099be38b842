package sim

import (
	"fmt"

	"repro/internal/avail"
)

// This file retains the pre-incremental full-rebuild implementations as an
// equivalence oracle. With slowChecks armed (test-only; see export_test.go)
// the engine verifies, every slot, that the incremental structures — the
// dirty-set view, the remaining-task count, the pending-originals list and
// the replication bucket queue — agree exactly with a from-scratch recount
// of the task table and worker states. Any divergence panics with the slot
// and the two values, which the property tests surface as failures.

// buildViewFull is the retained full-rebuild reference for buildView: it
// recomputes every processor snapshot and recounts the remaining tasks from
// the raw engine state, exactly as the pre-incremental engine did per slot.
func (e *engine) buildViewFull(dst *View) {
	dst.Slot = e.slot
	dst.Iteration = e.iter
	dst.Params = e.params
	if cap(dst.Procs) < len(e.workers) {
		dst.Procs = make([]ProcView, len(e.workers))
	}
	dst.Procs = dst.Procs[:len(e.workers)]
	remaining := 0
	for t := range e.tasks {
		if !e.tasks[t].completed {
			remaining++
		}
	}
	dst.TasksRemaining = remaining
	dst.IterTasks = len(e.tasks)
	dst.UpWorkers, dst.FreeWorkers, dst.IdleWorkers = 0, 0, 0
	for i := range e.workers {
		e.fillProcView(i, &dst.Procs[i])
		if e.states[i] == avail.Up {
			dst.UpWorkers++
			w := &e.workers[i]
			if w.incoming == nil {
				dst.FreeWorkers++
				if w.computing == nil {
					dst.IdleWorkers++
				}
			}
		}
	}
}

// verifyView checks the incrementally maintained view against buildViewFull,
// and the change-tracking contract against the previous revision: a
// processor snapshot may only differ from its previous value if its
// ProcEpochs stamp moved (schedulers cache scores on exactly this promise).
func (e *engine) verifyView() {
	e.buildViewFull(&e.checkView)
	if e.view.TasksRemaining != e.checkView.TasksRemaining {
		panic(fmt.Sprintf("sim: slot %d: incremental TasksRemaining %d, full rebuild %d",
			e.slot, e.view.TasksRemaining, e.checkView.TasksRemaining))
	}
	if e.view.IterTasks != e.checkView.IterTasks {
		panic(fmt.Sprintf("sim: slot %d: view IterTasks %d, task table holds %d",
			e.slot, e.view.IterTasks, e.checkView.IterTasks))
	}
	if e.view.UpWorkers != e.checkView.UpWorkers ||
		e.view.FreeWorkers != e.checkView.FreeWorkers ||
		e.view.IdleWorkers != e.checkView.IdleWorkers {
		panic(fmt.Sprintf("sim: slot %d: view counts up=%d free=%d idle=%d, full recount up=%d free=%d idle=%d",
			e.slot, e.view.UpWorkers, e.view.FreeWorkers, e.view.IdleWorkers,
			e.checkView.UpWorkers, e.checkView.FreeWorkers, e.checkView.IdleWorkers))
	}
	for i := range e.view.Procs {
		if e.view.Procs[i] != e.checkView.Procs[i] {
			panic(fmt.Sprintf("sim: slot %d: stale view for processor %d: incremental %+v, full rebuild %+v",
				e.slot, i, e.view.Procs[i], e.checkView.Procs[i]))
		}
	}
	if cap(e.prevProcs) < len(e.view.Procs) {
		e.prevProcs = make([]ProcView, len(e.view.Procs))
		e.prevEpochs = make([]int64, len(e.view.Procs))
	}
	e.prevProcs = e.prevProcs[:len(e.view.Procs)]
	e.prevEpochs = e.prevEpochs[:len(e.view.Procs)]
	if e.prevValid {
		for i := range e.view.Procs {
			if e.view.ProcEpochs[i] == e.prevEpochs[i] && e.view.Procs[i] != e.prevProcs[i] {
				panic(fmt.Sprintf("sim: slot %d: processor %d changed without an epoch bump: %+v -> %+v (epoch %d)",
					e.slot, i, e.prevProcs[i], e.view.Procs[i], e.view.ProcEpochs[i]))
			}
		}
	}
	copy(e.prevProcs, e.view.Procs)
	copy(e.prevEpochs, e.view.ProcEpochs)
	e.prevValid = true
}

// verifyPending checks that the pending-originals index holds exactly the
// incomplete zero-copy tasks, in ascending order — the set and order the
// pre-incremental originals loop produced by scanning the whole task table.
func (e *engine) verifyPending() {
	got := e.trk.pendFirst()
	for want := range e.tasks {
		if e.tasks[want].completed || e.tasks[want].copies > 0 {
			continue
		}
		if got != want {
			panic(fmt.Sprintf("sim: slot %d: pending index yields task %d, full scan expects %d",
				e.slot, got, want))
		}
		got = e.trk.pendAfter(got)
	}
	if got != noTask {
		panic(fmt.Sprintf("sim: slot %d: pending index has extra task %d past the full scan",
			e.slot, got))
	}
}

// verifyChains checks the two UP-chain indexes against a full worker scan:
// origChains must hold exactly the UP workers whose incoming original still
// needs transfer slots, and replicaChains exactly those whose incoming
// replica does.
func (e *engine) verifyChains() {
	orig, replicas := 0, 0
	for i := range e.workers {
		w := &e.workers[i]
		bound := e.states[i] == avail.Up && w.needsTransfer(e.params.Tprog)
		isOrig := bound && w.incoming.replica == 0
		isReplica := bound && w.incoming.replica != 0
		if e.origChains.contains(i) != isOrig || e.replicaChains.contains(i) != isReplica {
			panic(fmt.Sprintf("sim: slot %d: worker %d (state %v, chain %v) has original-chain membership %v and replica-chain membership %v",
				e.slot, i, e.states[i], bound, e.origChains.contains(i), e.replicaChains.contains(i)))
		}
		if isOrig {
			orig++
		} else if isReplica {
			replicas++
		}
	}
	if orig != e.origChains.size() || replicas != e.replicaChains.size() {
		panic(fmt.Sprintf("sim: slot %d: chain indexes hold %d originals and %d replicas, full scan finds %d and %d",
			e.slot, e.origChains.size(), e.replicaChains.size(), orig, replicas))
	}
}

// verifyCounters recounts every availability-derived index against the raw
// engine tables: the UP set and the nUp/nFreeUp/nIdleUp counters
// (reindexAvail's bookkeeping, consumed by the slate build, canMaterialize,
// reportQuietSpan and the per-slot Observer), and the per-task holder lists
// (the completion pass's sibling index). Any drift means a mutation site
// skipped its availKey/reindexAvail wrap or a holder update.
func (e *engine) verifyCounters() {
	up, freeUp, idleUp := 0, 0, 0
	for i := range e.workers {
		w := &e.workers[i]
		isUp := e.states[i] == avail.Up
		if e.upSet.contains(i) != isUp {
			panic(fmt.Sprintf("sim: slot %d: upSet.contains(%d) = %v, state %v",
				e.slot, i, e.upSet.contains(i), e.states[i]))
		}
		if !isUp {
			continue
		}
		up++
		if w.incoming == nil {
			freeUp++
			if w.computing == nil {
				idleUp++
			}
		}
	}
	if up != e.nUp || freeUp != e.nFreeUp || idleUp != e.nIdleUp {
		panic(fmt.Sprintf("sim: slot %d: incremental counters up=%d free=%d idle=%d, full recount up=%d free=%d idle=%d",
			e.slot, e.nUp, e.nFreeUp, e.nIdleUp, up, freeUp, idleUp))
	}
	for t := range e.tasks {
		hs := e.holders[t]
		if len(hs) != e.tasks[t].copies {
			panic(fmt.Sprintf("sim: slot %d: task %d has %d holders recorded, %d live copies",
				e.slot, t, len(hs), e.tasks[t].copies))
		}
		for _, h := range hs {
			w := &e.workers[int(h)]
			holds := (w.computing != nil && w.computing.task == t) ||
				(w.incoming != nil && w.incoming.task == t)
			if !holds {
				panic(fmt.Sprintf("sim: slot %d: worker %d recorded as holder of task %d but holds no copy of it",
					e.slot, h, t))
			}
		}
	}
}

// verifyPipelines runs after finishSlot's completion and promotion passes:
// no worker may still hold a finished computation (a completion the
// finishers list missed) or a promotable prefetch (a promotion the dirty
// set missed).
func (e *engine) verifyPipelines() {
	for i := range e.workers {
		w := &e.workers[i]
		if w.computing != nil && w.computing.computeDone >= w.proc.W {
			panic(fmt.Sprintf("sim: slot %d: worker %d holds a finished computation the completion pass missed",
				e.slot, i))
		}
		if w.computing == nil && w.incoming != nil && w.incoming.dataDone {
			panic(fmt.Sprintf("sim: slot %d: worker %d holds a promotable prefetch the promotion pass missed",
				e.slot, i))
		}
	}
}

// verifyBarrierIdle checks that no worker holds a copy when an iteration
// completes: every completion drops its siblings, so the barrier has
// nothing to discard.
func (e *engine) verifyBarrierIdle() {
	if e.nBusy != 0 {
		panic(fmt.Sprintf("sim: slot %d: iteration %d completed with %d busy workers",
			e.slot, e.iter-1, e.nBusy))
	}
}

// verifyRoundSetup checks the two O(1)/O(plans) round-start invariants
// against their reference recounts: the incrementally maintained busy count
// (n_active's base) and the all-zero NQ queues schedule restores in
// O(plans) instead of a per-round O(P) wipe.
func (e *engine) verifyRoundSetup() {
	e.verifyCounters()
	busy := 0
	for i := range e.workers {
		if e.workers[i].busy() {
			busy++
		}
	}
	if busy != e.nBusy {
		panic(fmt.Sprintf("sim: slot %d: incremental busy count %d, full recount %d",
			e.slot, e.nBusy, busy))
	}
	for i := range e.rs.NQ {
		if e.rs.NQ[i] != 0 {
			panic(fmt.Sprintf("sim: slot %d: NQ[%d] = %d at round start, want 0 (stale round queue)",
				e.slot, i, e.rs.NQ[i]))
		}
	}
}

// verifyRoundStop checks an early round end against full scans. A stop
// with no worker on the originals slate still free (UP with no incoming
// copy) and unpicked this round is a free-worker stop: no later pick could
// bind, or find a replica host. Any other stop must be a channel-budget
// stop: Tdata > 0 and no replica phase would follow; the chain indexes
// agree with a full scan (verifyChains); and the plans that would bind (the picked free workers' first plans)
// number exactly max(0, Ncom - chains). Either way the skipped count handed
// to SkipPicks must equal the pending originals from task from onwards,
// walked one by one.
func (e *engine) verifyRoundStop(slate []int, from, skipped int) {
	freeUnpicked, bindable := 0, 0
	for _, q := range slate {
		if e.workers[q].incoming != nil {
			continue
		}
		if e.rs.NQ[q] == 0 {
			freeUnpicked++
		} else {
			bindable++
		}
	}
	if freeUnpicked > 0 {
		if e.params.Tdata <= 0 || (len(slate) > e.trk.remaining && e.params.MaxReplicas > 0) {
			panic(fmt.Sprintf("sim: slot %d: round stopped early with %d workers free and unpicked, but not at a channel budget (Tdata=%d, %d UP, %d remaining, MaxReplicas=%d)",
				e.slot, freeUnpicked, e.params.Tdata, len(slate), e.trk.remaining, e.params.MaxReplicas))
		}
		e.verifyChains()
		if budget := max(0, e.params.Ncom-e.upChains()); bindable != budget {
			panic(fmt.Sprintf("sim: slot %d: round stopped at %d bindable picks with %d workers free and unpicked, channel budget %d",
				e.slot, bindable, freeUnpicked, budget))
		}
	}
	walked := 0
	for t := from; t != noTask; t = e.trk.pendAfter(t) {
		walked++
	}
	if walked != skipped {
		panic(fmt.Sprintf("sim: slot %d: round stop skips %d picks, the pending walk from task %d finds %d",
			e.slot, skipped, from, walked))
	}
}

// verifyTaskTables checks the per-iteration sizing invariant at an
// iteration start: every per-task table — states, replica counters, round
// overlay, holder lists — and the tracker's pending/remaining indexes must
// agree on the iteration's task count, with every entry in its
// start-of-iteration state. A moldable resize that missed a table would
// surface here as a length or stale-entry mismatch.
func (e *engine) verifyTaskTables() {
	m := len(e.tasks)
	if len(e.nextReplica) != m || len(e.plannedCopies) != m || len(e.holders) != m {
		panic(fmt.Sprintf("sim: slot %d: task tables disagree on iteration size: tasks=%d nextReplica=%d plannedCopies=%d holders=%d",
			e.slot, m, len(e.nextReplica), len(e.plannedCopies), len(e.holders)))
	}
	if e.trk.remaining != m || e.trk.pending.size() != m {
		panic(fmt.Sprintf("sim: slot %d: tracker sized for %d remaining / %d pending tasks, table holds %d",
			e.slot, e.trk.remaining, e.trk.pending.size(), m))
	}
	for t := 0; t < m; t++ {
		if e.tasks[t] != (taskState{}) || e.nextReplica[t] != 0 ||
			e.plannedCopies[t] != 0 || len(e.holders[t]) != 0 {
			panic(fmt.Sprintf("sim: slot %d: task %d not in start-of-iteration state after resize",
				e.slot, t))
		}
	}
}

// verifyLeastCovered checks one bucket-queue replication pick against the
// reference O(m) least-covered scan.
func (e *engine) verifyLeastCovered(got, gotCopies, copyCap int) {
	best, bestCopies := noTask, copyCap
	for t := range e.tasks {
		if e.tasks[t].completed {
			continue
		}
		total := e.tasks[t].copies + e.plannedCopies[t]
		if total >= 1 && total < bestCopies {
			best, bestCopies = t, total
		}
	}
	if best != got || bestCopies != gotCopies {
		panic(fmt.Sprintf("sim: slot %d: bucket queue picked task %d (%d copies), full scan picks %d (%d copies)",
			e.slot, got, gotCopies, best, bestCopies))
	}
}

// verifySkip re-derives the quiet-skip preconditions from the raw tables
// before nextSlot jumps over [slot+1, target): the dirty set must be
// empty, no UP worker may hold an advanceable transfer chain (it would
// have dirtied the slot), the reference materialization test recomputed
// from the task table must agree nothing can bind, and every queued
// availability transition must lie at or beyond the jump target.
func (e *engine) verifySkip(target int) {
	e.verifyCounters()
	copyCap := 1 + e.params.MaxReplicas
	pending, replicable, remaining := false, false, 0
	for t := range e.tasks {
		ts := &e.tasks[t]
		if ts.completed {
			continue
		}
		remaining++
		if ts.copies == 0 {
			pending = true
		} else if ts.copies < copyCap {
			replicable = true
		}
	}
	up, idle, freeUp := 0, 0, false
	for i := range e.workers {
		w := &e.workers[i]
		if e.states[i] != avail.Up {
			continue
		}
		up++
		if w.incoming == nil {
			freeUp = true
		}
		if !w.busy() {
			idle++
		}
		if w.needsTransfer(e.params.Tprog) {
			panic(fmt.Sprintf("sim: slot %d: quiet skip with an advanceable chain on UP worker %d",
				e.slot, i))
		}
		// A running computation must have started (its start event already
		// emitted) and must not complete strictly inside the span: the
		// completion slot executes normally, so target may at most reach it.
		if w.computing != nil && w.hasProgram(e.params.Tprog) {
			if w.computing.computeDone <= 0 {
				panic(fmt.Sprintf("sim: slot %d: quiet skip over an unstarted computation on worker %d",
					e.slot, i))
			}
			if end := e.slot + w.proc.W - w.computing.computeDone; end < target {
				panic(fmt.Sprintf("sim: slot %d: quiet skip to %d over worker %d's completion at %d",
					e.slot, target, i, end))
			}
		}
	}
	materializable := false
	if pending {
		materializable = freeUp
	} else if e.params.MaxReplicas > 0 && replicable && idle > 0 && up > remaining {
		materializable = true
	}
	if materializable {
		panic(fmt.Sprintf("sim: slot %d: quiet skip to %d but the reference test says a copy could bind",
			e.slot, target))
	}
	if next := e.log.Slot(); next < target {
		panic(fmt.Sprintf("sim: slot %d: quiet skip to %d over a transition logged at %d",
			e.slot, target, next))
	}
}
