// Package sim implements the discrete-time (time-slot) simulator for
// master-worker iterative applications on volatile processors, following the
// model of Section 3 of the paper:
//
//   - an iteration consists of m equal tasks, synchronized at the end;
//   - every processor is, per slot, UP, RECLAIMED or DOWN;
//   - a newly enrolled worker first downloads the program (Tprog slots),
//     then per-task input data (Tdata slots); a worker may prefetch the data
//     of at most one task beyond the one it is computing;
//   - the master sustains at most ncom simultaneous transfers (bounded
//     multi-port model);
//   - RECLAIMED suspends a worker's transfers and computation (resumed
//     intact); DOWN loses program, data and partial computation;
//   - tasks may be replicated (bounded number of extra copies) when UP
//     processors outnumber the remaining tasks; completing any copy cancels
//     the others.
//
// Scheduling decisions are delegated to a Scheduler (the heuristics of
// Section 6 live in internal/core). The engine consults the scheduler every
// slot and materializes as many of its decisions as bandwidth and pipeline
// capacity allow, which realizes the paper's "dynamic" heuristic class:
// begun work is never abandoned, everything else is re-planned from scratch
// each slot.
//
// A plan materializes only on an UP worker with a free incoming slot, and
// only if it is that worker's first plan of the slot; with Tdata > 0 it
// also needs one of the ncom channels left after the bound chains on UP
// workers. Once every such worker has been picked, or as many as there are
// channels left (when no replica phase follows), no later pick of the round
// can bind. For schedulers that implement PickSkipper the engine ends the
// round there and lets the scheduler account for the picks it did not
// make; all others are consulted for every task, as the paper describes.
package sim

import (
	"repro/internal/avail"
	"repro/internal/expect"
	"repro/internal/platform"
)

// ProcView is the scheduler-visible snapshot of one processor at the start
// of a slot, carrying everything the heuristics of Section 6 consume.
type ProcView struct {
	// ID is the processor index.
	ID int
	// W is w_q, the UP slots needed per task.
	W int
	// Model is the availability model the master believes the processor
	// follows (used by the informed heuristics).
	Model *avail.Markov3
	// Analytics caches the per-model Markov quantities (P+, E(up), the
	// stationary distribution, UD's survival rate) so heuristics score
	// candidates without re-deriving them every Pick. It is interned per
	// model and always non-nil inside Pick/Cancel.
	Analytics *expect.Analytics
	// State is the availability state in the current slot.
	State avail.State
	// RemProgram is the number of program slots still to be received
	// (Tprog if the worker holds nothing, 0 if it holds the full program).
	RemProgram int
	// HasComputing reports whether a task is currently being computed.
	HasComputing bool
	// ComputingRem is the remaining UP compute slots of that task.
	ComputingRem int
	// HasIncoming reports whether a task's data is bound to this worker
	// (transferring, or waiting to resume).
	HasIncoming bool
	// IncomingRem is the remaining data slots of the incoming task.
	IncomingRem int
}

// Busy reports whether the worker has any begun, unfinished work.
func (pv *ProcView) Busy() bool { return pv.HasComputing || pv.HasIncoming }

// View is the scheduler's per-slot snapshot of the whole platform.
type View struct {
	// Slot is the current time slot (0-based).
	Slot int
	// Iteration is the current iteration index (0-based). Task indices are
	// only meaningful within one iteration.
	Iteration int
	// Params are the run parameters (m, ncom, Tprog, Tdata, ...).
	Params *platform.Params
	// Procs has one entry per processor, indexed by processor ID.
	Procs []ProcView
	// IterTasks is the total number of tasks of the current iteration. It
	// equals Params.M under the fixed model; a configured AllocationPolicy
	// varies it per iteration (and reads it as "the size I last chose" when
	// consulted at a boundary, where it still reflects the iteration that
	// just completed).
	IterTasks int
	// UpWorkers is the engine's incrementally maintained count of workers
	// currently UP. Allocation policies size iterations from it; hand-built
	// views may leave it zero.
	UpWorkers int

	// Run identifies the simulation run this view belongs to. Engine-built
	// views carry a process-wide unique, strictly increasing run ID, so a
	// scheduler instance reused across runs (pooling) can detect the
	// boundary and drop cross-run state (commitments, caches). Hand-built
	// views leave it 0.
	Run int64
	// Epoch identifies this view revision. The engine draws epochs from a
	// process-wide strictly increasing counter and bumps the view's Epoch on
	// every refresh (at least once per scheduling round), so no two distinct
	// view revisions — across rounds, runs, or engines — ever share an
	// Epoch. 0 means change tracking is absent (hand-built views);
	// schedulers must then score from scratch every Pick.
	Epoch int64
	// ProcEpochs[q], when non-nil, is the Epoch at which processor q's
	// snapshot was last refreshed. The engine's contract: between two views
	// with ProcEpochs[q] equal, Procs[q] is unchanged. (The converse is not
	// promised: a refresh may rewrite identical values.) Schedulers use this
	// to re-score only candidates whose inputs changed; the slow-check
	// oracle (Runner.EnableSlowChecks) verifies the contract every slot.
	ProcEpochs []int64
	// SlowChecks is set when the run's full-rebuild oracle is armed
	// (Runner.EnableSlowChecks). Schedulers keeping incremental state should
	// then cross-check every cached decision against a from-scratch
	// evaluation and panic on divergence.
	SlowChecks bool
}

// FillAnalytics interns the per-model analytics of every processor that has
// a model but no cache yet. The engine populates views itself; this helper
// is for hand-built views (tests, external tooling driving schedulers
// directly).
func (v *View) FillAnalytics() {
	for i := range v.Procs {
		pv := &v.Procs[i]
		if pv.Analytics == nil && pv.Model != nil {
			pv.Analytics = expect.Of(pv.Model)
		}
	}
}

// RoundState accumulates the decisions already taken during one scheduling
// round (one slot). The greedy heuristics need n_q — how many of the tasks
// being distributed have already been piled on each processor — and the
// contention-corrected variants need n_active, the number of processors
// newly put to work this round (Section 6.3.1).
type RoundState struct {
	// NQ[q] is the number of tasks assigned to processor q in this round.
	NQ []int
	// NActive counts the processors competing for the master's bandwidth:
	// those already engaged in begun work at the start of the round, plus
	// each processor newly put to work by an assignment of this round.
	NActive int
	// Picks counts the assignments recorded this round — every accepted
	// pick, including ones a wrapper committed without consulting an inner
	// heuristic — so it equals the number of NQ increments since the round
	// started. The greedy score cache revalidates per worker (NQ entries
	// are compared directly on every use) and does not need it; it exists
	// for schedulers that track cross-call deltas instead, and the
	// change-tracking contract test pins it.
	Picks int
}

// TaskInfo describes the task for which the scheduler must pick a processor.
type TaskInfo struct {
	// Task is the task index within the current iteration, in [0, m).
	Task int
	// Replica is true when the pick is for an extra copy of an
	// already-running task rather than for the original.
	Replica bool
}

// Decline is the Pick return value meaning "leave this task unassigned for
// this slot". The dynamic heuristics never decline; the passive class
// (Section 6.1) declines while it waits for a RECLAIMED processor it has
// committed to.
const Decline = -1

// Scheduler selects processors for tasks. Implementations may keep internal
// randomness but must be deterministic given their construction seed.
type Scheduler interface {
	// Name identifies the heuristic (e.g. "emct*").
	Name() string
	// Pick returns the ID of the processor (from eligible, which is never
	// empty) that should receive the given task, or Decline to leave the
	// task unassigned this slot. The engine invokes Pick once per task per
	// slot, originals first, then replicas; rs reflects all picks already
	// made this round. A scheduler implementing PickSkipper sees the round
	// end early, after the last original pick that could bind: either every
	// UP worker with a free incoming slot has been picked (no replica is
	// picked then, as there is no idle host left), or, when Tdata > 0 and
	// no replica phase follows, the picks of free workers have used up the
	// channels the bound chains leave. The remaining originals go to
	// SkipPicks instead.
	Pick(v *View, eligible []int, rs *RoundState, ti TaskInfo) int
}

// Poolable is the optional interface of schedulers whose instances may be
// reused across simulation runs: they either keep no cross-run state, or
// detect run boundaries (View.Run, the globally unique View.Epoch /
// View.ProcEpochs stamps) and invalidate accordingly. Run pools only reuse
// schedulers that report PoolSafe() == true; wrappers should delegate to
// their inner heuristic.
type Poolable interface {
	// PoolSafe reports whether this instance may serve multiple runs.
	PoolSafe() bool
}

// PoolSafe reports whether s has opted into cross-run reuse.
func PoolSafe(s Scheduler) bool {
	p, ok := s.(Poolable)
	return ok && p.PoolSafe()
}

// PickSkipper is the optional interface of schedulers that let the engine
// end a scheduling round at its last bindable pick. No further pick can
// materialize once every UP worker with a free incoming slot has been
// picked this round (the free-worker stop), nor, when Tdata > 0 and no
// replica phase follows the originals, once the picked free workers number
// the channels left after the bound chains on UP workers (the
// channel-budget stop: each such plan needs a channel, and the chains are
// served first). At either point the engine stops consulting Pick and calls
// SkipPicks once instead, with the n originals it did not visit.
//
// The contract: SkipPicks must leave the scheduler exactly as n more
// original-task Pick calls on (v, eligible) would have left it, with their
// results discarded. rs is the round state at the stop; the engine does not
// advance it for the skipped picks. A side-effect-free scheduler (one whose
// state is a pure cache) implements SkipPicks as a no-op; a randomized one
// advances its RNG by the draws those picks would have made. Schedulers
// that commit to decisions inside Pick must not implement it. Wrappers
// implement it only when their inner heuristic does (embedding does not
// promote it).
type PickSkipper interface {
	// SkipPicks accounts for n original-task picks the engine skipped.
	SkipPicks(v *View, eligible []int, rs *RoundState, n int)
}

// ChannelRanker is the optional interface of schedulers that hold whole-worker
// reservations, such as batch disciplines. For such a scheduler every plan on
// an UP worker with a free incoming slot binds at once, even when no channel
// is left for it, and waits bound; the Ncom channels then go to the bound
// chains on UP workers in ascending ChannelRank. Without it, bound chains are
// served originals first by ascending worker, and a plan that finds no
// channel is dropped and re-planned next slot.
type ChannelRanker interface {
	// ChannelRank orders worker's bound chain on the master link (lower
	// first). Ranks of distinct chains must differ.
	ChannelRank(worker int) int64
}

// Canceller is the optional interface of the paper's "proactive" heuristic
// class (Section 6.1): a scheduler that may aggressively terminate begun
// work. The engine consults Cancel at the start of every scheduling round;
// each returned processor has its pipeline (computing task and/or incoming
// transfer) aborted, the affected tasks returning to the unassigned pool.
// Partial work and received data are lost, exactly as if the scheduler had
// un-enrolled the processor (Section 3.3).
type Canceller interface {
	// Cancel returns the IDs of processors whose begun work to abort this
	// slot. IDs without begun work are ignored.
	Cancel(v *View) []int
}
