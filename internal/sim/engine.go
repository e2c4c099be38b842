package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/avail"
	"repro/internal/expect"
	"repro/internal/platform"
)

// runCounter and epochCounter feed View.Run and View.Epoch/ProcEpochs with
// process-wide unique, non-zero stamps. Global (rather than per-engine)
// counters make the stamps collision-free even when a scheduler instance
// migrates between engines, so equality of stamps always means "same
// revision". The values themselves never influence scheduling — they are
// only ever compared for equality — so results stay deterministic.
//
// Every view revision takes an epoch, so engines reserve them from
// epochCounter epochBlock at a time and hand them out locally: concurrent
// sweep workers then touch the shared counter once per block instead of
// contending for it on every revision. Within one engine the epochs still
// strictly increase.
var (
	runCounter   atomic.Int64
	epochCounter atomic.Int64
)

// epochBlock is how many epochs an engine reserves at once.
const epochBlock = 1 << 12

// Config assembles everything one simulation run needs.
type Config struct {
	// Platform is the static processor description.
	Platform *platform.Platform
	// Params are the application/communication parameters.
	Params platform.Params
	// Procs supplies the actual availability trajectory of each processor
	// (same order as Platform.Processors). The trajectories may follow the
	// processors' declared Markov models, or deliberately deviate from them
	// (trace-driven and semi-Markov experiments). The engine records them on
	// its own pooled avail.Tape and replays that.
	Procs []avail.Process
	// Tape, set instead of Procs, is an availability recording to replay:
	// it must cover every processor up to at least the run's horizon
	// (Params.EffectiveMaxSlots) and be recorded per slot for ModeSlot and
	// per transition for ModeEvent. Runs that replay one tape face the same
	// world and share its recording; results equal a run on the recorded
	// processes given as Procs.
	Tape *avail.Tape
	// Scheduler is the heuristic under test.
	Scheduler Scheduler
	// Alloc, when non-nil, makes the application moldable: the policy is
	// consulted at every iteration boundary to decide how many tasks the
	// next iteration runs (see AllocationPolicy). Nil keeps the paper's
	// fixed model — every iteration runs exactly Params.M tasks — on the
	// engine's original code path, byte for byte.
	Alloc AllocationPolicy
	// Mode selects the engine's time base: ModeSlot (the default) executes
	// every slot on the per-slot (Next) trajectories; ModeEvent reads
	// availability at sojourn granularity (requires Procs that implement
	// avail.Trajectory) and skips quiet spans. Both advance states by
	// replaying one merged transition log (eventclock.go).
	Mode Mode
	// Observer, when non-nil, is invoked after every slot.
	Observer func(*SlotReport)
	// OnEvent, when non-nil, receives engine events (verbose timelines).
	OnEvent func(Event)
}

// validate checks the configuration.
func (c *Config) validate() error {
	if c.Platform == nil {
		return fmt.Errorf("sim: nil platform")
	}
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if !c.Mode.valid() {
		return fmt.Errorf("sim: invalid mode %d", c.Mode)
	}
	if t := c.Tape; t != nil {
		if c.Procs != nil {
			return fmt.Errorf("sim: both Procs and Tape set")
		}
		if t.P() != c.Platform.P() || t.Limit() < c.Params.EffectiveMaxSlots() {
			return fmt.Errorf("sim: tape of %d processors to slot %d for %d processors to slot %d",
				t.P(), t.Limit(), c.Platform.P(), c.Params.EffectiveMaxSlots())
		}
	} else if len(c.Procs) != c.Platform.P() {
		return fmt.Errorf("sim: %d availability processes for %d processors",
			len(c.Procs), c.Platform.P())
	}
	for i, p := range c.Procs {
		if p == nil {
			return fmt.Errorf("sim: nil availability process %d", i)
		}
		if _, ok := p.(avail.Trajectory); !ok && c.Mode == ModeEvent {
			return fmt.Errorf("sim: event mode requires availability processes implementing avail.Trajectory; process %d (%T) does not", i, p)
		}
	}
	if c.Scheduler == nil {
		return fmt.Errorf("sim: nil scheduler")
	}
	return nil
}

// taskState tracks one task of the current iteration.
type taskState struct {
	completed bool
	copies    int // live copies currently bound to workers
}

// plannedAssignment is one scheduler decision awaiting materialization.
type plannedAssignment struct {
	task    int
	worker  int
	replica int // 0 = original
}

// contRec is one bound transfer chain awaiting a channel slot; rank is its
// ChannelRank (ranked allocation only).
type contRec struct {
	worker int
	rank   int64
}

// engine is the mutable run state. All of its buffers survive between slots
// and — through Runner — between runs, so a steady-state slot performs no
// heap allocation.
type engine struct {
	cfg     Config
	params  *platform.Params
	workers []workerState
	// states is the struct-of-arrays availability state (one byte per
	// worker, the companion of workers[i]): the hot scans — slate building,
	// the event clock's frozen-platform walk, the slow-check recounts — read
	// only this field, and the dense packing keeps them cache-resident at
	// volunteer-grid platform sizes. applyState is its only mutation site
	// after reset.
	states []avail.State
	tasks  []taskState
	slot   int
	iter   int
	stats  Stats
	// ends[k] is the slot after iteration k's barrier, so iteration k ran
	// from ends[k-1] (0 for the first) to ends[k].
	ends []int
	// nextReplica numbers replica copies per task within an iteration.
	nextReplica []int
	// scratch buffers reused across slots.
	view     View
	eligible []int
	// plans holds the current round's decisions in pick order; outside a
	// round it is the last round's, which allocateChannels materializes.
	plans []plannedAssignment
	// rs is the round state handed to Pick; rs.NQ is all-zero between
	// rounds (schedule restores it), so rs.NQ[q] == 0 means q has no plan
	// this round.
	rs    RoundState
	conts []contRec
	idle  []int
	// freeCopies pools retired copyState objects for reuse by bindCopy.
	freeCopies []*copyState
	// trk indexes the task table incrementally (remaining count, pending
	// originals, replication buckets) so the scheduler round does work
	// proportional to what changed, not to m.
	trk taskTracker
	// procDirty/dirtyProcs implement buildView's dirty set: a worker's
	// ProcView is refreshed only when its availability state, pipeline
	// occupancy, or progress changed since the last refresh. Every site that
	// mutates scheduler-visible worker state calls markDirty.
	procDirty  []bool
	dirtyProcs []int
	// finishers lists the workers whose computation reached W this slot
	// (filled by compute, consumed by finishSlot), so the completion pass
	// visits candidates instead of scanning every worker.
	finishers []int
	// origChains and replicaChains index the UP workers holding a bound,
	// incomplete transfer chain of an original and of a replica copy
	// (ascending-worker iteration). allocateChannels serves them in that
	// order with no filter pass, their sizes give each round its channel
	// budget, and syncChain is their single reconciliation site.
	origChains, replicaChains idSet
	// upSet indexes the UP workers; with the nUp/nFreeUp/nIdleUp counters
	// it replaces every O(P) availability scan outside the slow-check
	// oracles: the originals slate, compute's walk, the event clock's
	// frozen-platform scan, canMaterialize and the per-slot Observer count.
	// reindexAvail maintains set and counters at every mutation site.
	upSet idSet
	// nUp counts UP workers; nFreeUp the UP workers with a free incoming
	// slot (able to accept a new copy); nIdleUp the UP workers with no begun
	// work at all (replica hosts).
	nUp, nFreeUp, nIdleUp int
	// holders[t] lists the workers currently holding a live copy of task t
	// (at most 1+MaxReplicas entries, unordered), so completion cancels
	// sibling copies by visiting exactly the holders instead of scanning all
	// P workers. holderScratch is the completion pass's sorted snapshot.
	holders       [][]int32
	holderScratch []int32
	// nBusy counts the workers with begun work (computing or incoming) in
	// any state, maintained by reindexAvail from the availability key's busy
	// bit, so the scheduling round reads its n_active base in O(1) instead
	// of recounting all P workers.
	nBusy int
	// log replays the run's availability tape on both clocks
	// (eventclock.go); tape records cfg.Procs when the run has no cfg.Tape.
	log  avail.Reader
	tape avail.Tape
	// skipQuiet permits quiet-span skipping: event mode with a scheduler
	// that does not implement Canceller (a Canceller may act on slots where
	// no engine state changed, so its slots cannot be skipped).
	skipQuiet bool
	// iterTasks records each iteration's task count (moldable runs only;
	// the fixed path leaves it empty and Result.IterationTasks nil).
	iterTasks []int
	// epoch is the last epoch handed out; epochs up to epochEnd are
	// reserved for this engine (see epochBlock).
	epoch, epochEnd int64
	// skipper is cfg.Scheduler's PickSkipper side, or nil: only such
	// schedulers end a round at its last bindable pick (scheduleRound).
	skipper PickSkipper
	// ranker is cfg.Scheduler's ChannelRanker side, or nil: only such
	// schedulers bind every plan at once and rank the bound chains
	// (allocateChannels).
	ranker ChannelRanker
	// mutateSkipDirty suppresses markDirty for worker mutateSkipDirty-1
	// (mutation hook for the oracle tests; 0 — the zero value — disables
	// the mutation). It survives reset, like slowChecks.
	mutateSkipDirty int
	// mutateFreeLeft miscounts scheduleRound's free-worker budget, spending
	// it on every first pick of a worker, occupied or not (mutation hook for
	// the round-stop slow check; survives reset).
	mutateFreeLeft bool
	// mutateChannelBudget stops scheduleRound's originals loop one bindable
	// pick before the channel budget is reached (mutation hook for the
	// round-stop slow check; survives reset).
	mutateChannelBudget bool
	// slowChecks arms the full-rebuild equivalence oracle (test-only): every
	// incremental structure is verified against a from-scratch recount.
	slowChecks bool
	// checkView is the slow-check scratch view for buildViewFull.
	checkView View
	// prevProcs/prevEpochs retain the previous slot's snapshots for the
	// change-tracking contract check (slow checks only): a ProcView may only
	// differ from its previous value if its ProcEpochs entry moved.
	prevProcs  []ProcView
	prevEpochs []int64
	prevValid  bool
}

// Runner owns a reusable engine. A Runner amortizes every engine allocation
// (worker states, task tables, scheduler view, scratch buffers, the copy
// pool) across the runs it executes, which is what tight sweep loops want.
// A Runner must not be used concurrently; use one per goroutine.
type Runner struct {
	e engine
}

// NewRunner returns an empty Runner; its first Run sizes the buffers.
func NewRunner() *Runner { return &Runner{} }

// EnableSlowChecks arms the full-rebuild equivalence oracle on the runner's
// engine: every buildView is verified against buildViewFull (including the
// change-tracking contract on View.ProcEpochs), the originals loop against
// a fresh scan of the task table, every replication pick against the
// reference least-covered scan (see fullcheck.go), and — via View.SlowChecks
// — every incremental scheduler decision against a from-scratch rescan.
// Mismatches panic. The flag survives Runner reuse across runs. Intended
// for tests and debugging: it makes every slot pay the full pre-incremental
// cost again, several times over.
func (r *Runner) EnableSlowChecks() { r.e.slowChecks = true }

// Run executes one simulation and returns its result. The error reports
// configuration problems or scheduler protocol violations; volatile-platform
// conditions (even pathological ones) are not errors.
func Run(cfg Config) (*Result, error) {
	return NewRunner().Run(cfg)
}

// Run executes one simulation on the reused engine. Results are identical to
// the package-level Run: reuse only recycles memory, never state.
func (r *Runner) Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &r.e
	e.reset(cfg)
	maxSlots := cfg.Params.EffectiveMaxSlots()
	if err := e.initClock(maxSlots); err != nil {
		return nil, err
	}
	if cfg.Alloc != nil {
		// Moldable runs size iteration 0 from the slot-0 worker states
		// initClock just applied — the same decision inputs in both time
		// bases. Its completed-iteration summary is the -1 sentinel
		// (nothing ran yet); stateful policies reset on it.
		e.startIteration(e.decideAlloc(IterationInfo{Iteration: -1}))
	}

	for e.slot = 0; e.slot < maxSlots; e.slot = e.nextSlot(maxSlots) {
		if err := e.step(); err != nil {
			return nil, err
		}
		if e.iter >= e.params.Iterations {
			break
		}
	}
	// A completed run stops in its finishing slot; a censored one leaves the
	// clock at maxSlots. Fixed-model runs record no iteration sizes, so the
	// copy of the empty iterTasks is nil.
	return &Result{
		Completed:      e.iter >= e.params.Iterations,
		Makespan:       min(e.slot+1, maxSlots),
		IterationEnds:  append([]int(nil), e.ends...),
		IterationTasks: append([]int(nil), e.iterTasks...),
		Stats:          e.stats,
	}, nil
}

// reset (re)initializes the engine for a run, growing buffers as needed and
// recycling any state left from a previous (possibly censored) run.
func (e *engine) reset(cfg Config) {
	e.cfg = cfg
	e.params = &e.cfg.Params
	e.skipper, _ = cfg.Scheduler.(PickSkipper)
	e.ranker, _ = cfg.Scheduler.(ChannelRanker)
	p := cfg.Platform.P()
	m := cfg.Params.M

	if cap(e.workers) < p {
		e.workers = make([]workerState, p)
		e.states = make([]avail.State, p)
	}
	e.workers = e.workers[:p]
	e.states = e.states[:p]
	for i := range e.workers {
		w := &e.workers[i]
		// Retire copies a previous run left in flight.
		if w.computing != nil {
			e.releaseCopy(w.computing)
		}
		if w.incoming != nil {
			e.releaseCopy(w.incoming)
		}
		proc := cfg.Platform.Processors[i]
		*w = workerState{proc: proc, analytics: expect.Of(proc.Avail)}
		e.states[i] = avail.Down
	}
	e.upSet.reset(p)
	e.nUp, e.nFreeUp, e.nIdleUp = 0, 0, 0

	if cap(e.rs.NQ) < p {
		e.rs.NQ = make([]int, p)
		e.view.Procs = make([]ProcView, p)
		e.view.ProcEpochs = make([]int64, p)
	}
	e.rs.NQ = e.rs.NQ[:p]
	for i := range e.rs.NQ {
		e.rs.NQ[i] = 0 // rounds keep NQ all-zero between them (see schedule)
	}
	e.view = View{Params: e.params, Procs: e.view.Procs[:p],
		ProcEpochs: e.view.ProcEpochs[:p], Run: runCounter.Add(1)}
	e.prevValid = false
	e.nBusy = 0

	if cap(e.procDirty) < p {
		e.procDirty = make([]bool, p)
	}
	e.procDirty = e.procDirty[:p]
	e.dirtyProcs = e.dirtyProcs[:0]
	for i := 0; i < p; i++ {
		e.procDirty[i] = true
		e.dirtyProcs = append(e.dirtyProcs, i)
	}
	e.origChains.reset(p)
	e.replicaChains.reset(p)
	e.finishers = e.finishers[:0]

	e.skipQuiet = false
	e.iterTasks = e.iterTasks[:0]

	e.slot, e.iter = 0, 0
	e.stats = Stats{}
	e.ends = e.ends[:0]
	e.eligible = e.eligible[:0]
	e.plans = e.plans[:0]
	e.conts = e.conts[:0]
	e.idle = e.idle[:0]
	e.startIteration(m)
}

// startIteration puts every per-task table and the tracker in the
// start-of-iteration state for an iteration of n tasks. Every iteration
// starts here: reset's (Params.M tasks), a moldable run's first decision in
// Run, and each barrier in finishSlot.
func (e *engine) startIteration(n int) {
	e.resizeTasks(n)
	e.trk.reset(n, 1+e.params.MaxReplicas)
	if e.slowChecks {
		e.verifyTaskTables()
	}
}

// resizeTasks (re)sizes the per-task tables — the task states, replica
// counters and holder lists — to m tasks, growing capacity as needed and
// zeroing every entry: growing within capacity re-exposes stale entries
// from an earlier, larger iteration, so the wipe is unconditional. Holder
// lists keep their underlying arrays for reuse.
func (e *engine) resizeTasks(m int) {
	if cap(e.tasks) < m {
		e.tasks = make([]taskState, m)
		e.nextReplica = make([]int, m)
	}
	e.tasks = e.tasks[:m]
	e.nextReplica = e.nextReplica[:m]
	for t := range e.tasks {
		e.tasks[t] = taskState{}
		e.nextReplica[t] = 0
	}
	if cap(e.holders) < m {
		holders := make([][]int32, m)
		copy(holders, e.holders)
		e.holders = holders
	}
	e.holders = e.holders[:m]
	for t := range e.holders {
		e.holders[t] = e.holders[t][:0]
	}
}

// decideAlloc consults the allocation policy for the iteration about to
// start (Alloc is non-nil) and returns the clamped task count. The view is
// refreshed first so the policy reads current worker states; the extra
// buildView only spends an epoch stamp, which is behaviour-invisible
// (epochs are only ever compared for equality).
func (e *engine) decideAlloc(prev IterationInfo) int {
	e.buildView()
	n := clampIterTasks(e.cfg.Alloc.TasksFor(&e.view, prev))
	e.iterTasks = append(e.iterTasks, n)
	return n
}

// newCopy takes a copyState from the pool (or allocates the pool's first
// instances) and initializes it.
func (e *engine) newCopy(task, replica int) *copyState {
	if n := len(e.freeCopies); n > 0 {
		c := e.freeCopies[n-1]
		e.freeCopies = e.freeCopies[:n-1]
		*c = copyState{task: task, replica: replica}
		return c
	}
	return &copyState{task: task, replica: replica}
}

// releaseCopy returns a retired copy to the pool. Callers must be done with
// the copy's fields (waste accounting, events) before releasing it.
func (e *engine) releaseCopy(c *copyState) {
	e.freeCopies = append(e.freeCopies, c)
}

// step executes one time slot.
func (e *engine) step() error {
	if err := e.applyTransitions(); err != nil {
		return err
	}
	if err := e.schedule(); err != nil {
		return err
	}
	transfers := e.allocateChannels()
	computing := e.compute()
	e.finishSlot()

	if e.cfg.Observer != nil {
		e.cfg.Observer(&SlotReport{
			Slot:             e.slot,
			Iteration:        e.iter,
			TransfersUsed:    transfers,
			UpWorkers:        e.nUp,
			ComputingWorkers: computing,
			TasksCompleted:   e.stats.TasksCompleted,
		})
	}
	return nil
}

// availKey encodes worker i's membership in the availability-derived
// indexes as a bitmask: bit 0 = UP, bit 1 = UP with a free incoming slot,
// bit 2 = UP and idle (no begun work), bit 3 = busy (begun work, in any
// state). reindexAvail applies the delta between two keys to upSet and the
// nUp/nFreeUp/nIdleUp/nBusy counters; every mutation of a worker's state or
// pipeline occupancy captures the key before and reindexes after, so the
// counters are exact at all times (recounted by verifyCounters and
// verifyRoundSetup under slow checks).
func (e *engine) availKey(i int) uint8 {
	w := &e.workers[i]
	var k uint8
	if w.busy() {
		k = 8
	}
	if e.states[i] != avail.Up {
		return k
	}
	k |= 1
	if w.incoming == nil {
		k |= 2
		if w.computing == nil {
			k |= 4
		}
	}
	return k
}

// reindexAvail reconciles worker i's availability indexes after a mutation,
// given its pre-mutation key.
func (e *engine) reindexAvail(i int, was uint8) {
	now := e.availKey(i)
	if now == was {
		return
	}
	if d := int(now&1) - int(was&1); d != 0 {
		e.nUp += d
		if d > 0 {
			e.upSet.add(i)
		} else {
			e.upSet.remove(i)
		}
	}
	e.nFreeUp += int(now>>1&1) - int(was>>1&1)
	e.nIdleUp += int(now>>2&1) - int(was>>2&1)
	e.nBusy += int(now>>3&1) - int(was>>3&1)
}

// applyState transitions worker i to next — which callers guarantee differs
// from its current state. A transition into DOWN is a crash: the program,
// all task data and all partial computation are lost (Section 3.2). It is
// the single mutation site of the transition queue both time bases drain,
// so they cannot drift on crash semantics.
func (e *engine) applyState(i int, next avail.State) {
	if next == avail.Down {
		w := &e.workers[i]
		e.stats.Crashes++
		e.stats.WastedProgramSlots += int64(w.progRecv)
		e.emit(Event{Slot: e.slot, Kind: EvCrash, Worker: i, Task: -1, Replica: -1, Iteration: e.iter})
		e.dropCopies(i, noTask, false)
		w.progRecv = 0
	}
	was := e.availKey(i)
	e.markDirty(i)
	e.states[i] = next
	e.syncChain(i)
	e.reindexAvail(i, was)
}

// dropCopies removes worker i's live copies of task — every copy when task
// is noTask — computing before incoming. Each removed copy leaves the task
// tables (taskLostCopy), its sunk work is wasted and, when cancelled is
// set, an EvCopyCancelled is emitted; then the copy returns to the pool and
// the worker's indexes are reconciled once. It is the single removal path
// for crashes and for proactive and sibling cancellations; the program
// survives it (only a crash loses that, in applyState).
func (e *engine) dropCopies(i, task int, cancelled bool) {
	w := &e.workers[i]
	if !w.busy() {
		return // an idle worker's crash or cancel changes no index
	}
	was := e.availKey(i)
	for _, slot := range [2]**copyState{&w.computing, &w.incoming} {
		c := *slot
		if c == nil || (task != noTask && c.task != task) {
			continue
		}
		*slot = nil
		e.taskLostCopy(c.task, i)
		e.wasteCopy(c)
		if cancelled {
			e.emitCopy(EvCopyCancelled, i, c)
		}
		e.releaseCopy(c)
		e.markDirty(i)
	}
	e.syncChain(i)
	e.reindexAvail(i, was)
}

// wasteCopy accounts a killed/cancelled copy's sunk work.
func (e *engine) wasteCopy(c *copyState) {
	e.stats.WastedComputeSlots += int64(c.computeDone)
	e.stats.WastedDataSlots += int64(c.dataRecv)
}

// noWorker marks an absent link in the worker chain list.
const noWorker = -1

// markDirty queues worker i's ProcView for refresh at the next buildView.
func (e *engine) markDirty(i int) {
	if e.mutateSkipDirty == i+1 {
		return // test-only mutation: deliberately miss this invalidation
	}
	if !e.procDirty[i] {
		e.procDirty[i] = true
		e.dirtyProcs = append(e.dirtyProcs, i)
	}
}

// syncChain reconciles worker i's membership in the UP-chain indexes (the
// UP workers whose incoming copy still needs program or data slots, split
// by original and replica) with its current state and pipeline. It is
// idempotent; every site that binds, advances or drops an incoming copy, or
// changes a worker's availability state, calls it.
func (e *engine) syncChain(i int) {
	w := &e.workers[i]
	bound := e.states[i] == avail.Up && w.needsTransfer(e.params.Tprog)
	if bound && w.incoming.replica == 0 {
		e.origChains.add(i)
	} else {
		e.origChains.remove(i)
	}
	if bound && w.incoming.replica != 0 {
		e.replicaChains.add(i)
	} else {
		e.replicaChains.remove(i)
	}
}

// upChains counts the bound chains on UP workers; allocateChannels grants
// each of them a channel before any new plan.
func (e *engine) upChains() int { return e.origChains.size() + e.replicaChains.size() }

// holdersAdd records that worker w holds a live copy of task t.
func (e *engine) holdersAdd(t, w int) {
	e.holders[t] = append(e.holders[t], int32(w))
}

// holdersRemove drops one record of worker w holding a copy of task t
// (order within a holder list is irrelevant; the completion pass sorts its
// snapshot). A missing record is a no-op, keeping the call sites robust to
// copies dropped through several paths.
func (e *engine) holdersRemove(t, w int) {
	hs := e.holders[t]
	for i, h := range hs {
		if int(h) == w {
			hs[i] = hs[len(hs)-1]
			e.holders[t] = hs[:len(hs)-1]
			return
		}
	}
}

// taskGainedCopy records a new live copy of task t on worker w (bind time):
// the task leaves the pending-originals index (first copy) or moves up one
// replication bucket (a replica joined).
func (e *engine) taskGainedCopy(t, w int) {
	ts := &e.tasks[t]
	if ts.copies == 0 {
		e.trk.pending.remove(t)
	} else {
		e.trk.bucketRemove(t)
	}
	ts.copies++
	e.trk.bucketAdd(t, ts.copies)
	e.holdersAdd(t, w)
}

// taskLostCopy records the death of one live copy of task t on worker w
// (dropCopies). Completed tasks (sibling drops) are already
// out of every index; incomplete ones move down a bucket, or back into the
// pending list when their last copy died.
func (e *engine) taskLostCopy(t, w int) {
	ts := &e.tasks[t]
	ts.copies--
	e.holdersRemove(t, w)
	if ts.completed {
		return
	}
	e.trk.bucketRemove(t)
	if ts.copies == 0 {
		e.trk.pending.add(t)
	} else {
		e.trk.bucketAdd(t, ts.copies)
	}
}

// schedule runs one scheduler round (scheduleRound), then undoes the
// round's planned-copy overlay and zeroes its NQ entries: every planned task
// is re-keyed to its live copy count — out of the buckets when it has none.
// The re-key is idempotent, so a task planned several times, or planned in
// a round that never overlaid, needs no bookkeeping of its own. Iterating
// e.plans touches exactly the tasks and workers the round planned (every
// notePick is followed by a plan append), so the cleanup is O(plans), not
// O(m) or O(P) — and rs.NQ is all-zero again when the next round starts.
func (e *engine) schedule() error {
	e.plans = e.plans[:0]
	err := e.scheduleRound()
	for _, pl := range e.plans {
		e.rs.NQ[pl.worker] = 0
		if c := e.tasks[pl.task].copies; c > 0 {
			e.trk.bucketMove(pl.task, c)
		} else if e.trk.bucketOf[pl.task] != noTask {
			e.trk.bucketRemove(pl.task)
		}
	}
	return err
}

// scheduleRound runs one scheduler round: it applies proactive cancellations
// (when the scheduler requests them), then plans processors for all unbegun
// original tasks, then for replicas when UP processors outnumber the
// remaining tasks (Section 6.1). For a PickSkipper the round ends at its
// last bindable pick (see the originals loop). Its only lasting state is
// e.plans: the NQ counts and the buckets' planned-copy overlay it leaves
// are undone by schedule.
func (e *engine) scheduleRound() error {
	e.buildView()

	if canceller, ok := e.cfg.Scheduler.(Canceller); ok {
		if cancels := canceller.Cancel(&e.view); len(cancels) > 0 {
			for _, q := range cancels {
				if q < 0 || q >= len(e.workers) {
					return fmt.Errorf("sim: scheduler %q cancelled invalid processor %d",
						e.cfg.Scheduler.Name(), q)
				}
				e.dropCopies(q, noTask, true)
			}
			e.buildView() // cancellations changed pipeline state
		}
	}

	remaining := e.trk.remaining
	if remaining == 0 {
		return nil
	}

	// The originals slate is the UP set. The round queues are already zero
	// — schedule restores them in O(plans) — and n_active's base is the
	// incrementally maintained busy count (Section 6.3.1: the processors
	// already engaged in begun work, plus — via notePick — each processor
	// newly put to work during this round).
	if e.slowChecks {
		e.verifyRoundSetup()
	}
	rs := &e.rs
	rs.NActive = e.nBusy
	rs.Picks = 0
	// The UP index yields the slate in ascending worker order — identical to
	// the full scan it replaced — in O(nUp), not O(P).
	up := e.upSet.appendTo(e.eligible[:0])
	e.eligible = up
	if len(up) == 0 {
		return nil
	}

	// Originals: every incomplete task with no live copy — exactly the
	// pending list, walked in ascending task order. The plans record them,
	// so same-round replication (below) can overlay them on the buckets.
	if e.slowChecks {
		e.verifyPending()
	}
	// A plan binds only on an UP worker with a free incoming slot, and only
	// if it is that worker's first plan of the round (allocateChannels skips
	// plans on occupied workers). freeLeft counts the free workers no pick
	// has reached yet; once it is zero no later pick can bind, and an idle
	// worker is always free, so the replica phase has no hosts either. A
	// scheduler implementing PickSkipper then fast-forwards over the
	// unvisited originals and the round ends; any other runs every pick.
	//
	// With Tdata > 0 every such bindable plan also needs a channel, and
	// allocateChannels grants the UP chains theirs first, so at most
	// Ncom - upChains plans bind. When no replica phase follows, the round
	// ends there too (the channel-budget stop): freeLeft falling to
	// stopFree means nFreeUp - freeLeft bindable picks reached the budget.
	// A ChannelRanker binds without channels and never takes it.
	freeLeft, visited, stopFree := e.nFreeUp, 0, 0
	if e.skipper != nil && e.ranker == nil && e.params.Tdata > 0 &&
		(len(up) <= remaining || e.params.MaxReplicas == 0) {
		budget := max(0, e.params.Ncom-e.upChains())
		if e.mutateChannelBudget && budget > 0 {
			budget--
		}
		stopFree = max(0, e.nFreeUp-budget)
	}
	for t := e.trk.pending.min(); t != noTask; t = e.trk.pending.next(t) {
		if freeLeft <= stopFree && e.skipper != nil {
			n := e.trk.pending.size() - visited
			if e.slowChecks {
				e.verifyRoundStop(up, t, n)
			}
			e.skipper.SkipPicks(&e.view, up, rs, n)
			return nil
		}
		visited++
		ti := TaskInfo{Task: t, Replica: false}
		pick := e.cfg.Scheduler.Pick(&e.view, up, rs, ti)
		if pick == Decline {
			continue
		}
		if err := e.notePick(rs, pick, false); err != nil {
			return err
		}
		if rs.NQ[pick] == 1 && (e.workers[pick].incoming == nil || e.mutateFreeLeft) {
			freeLeft--
		}
		e.plans = append(e.plans, plannedAssignment{task: t, worker: pick, replica: 0})
	}

	// Replication (paper rule): replicate only when strictly more UP
	// processors than remaining tasks; each task carries at most
	// 1 + MaxReplicas copies. Idle processors (no begun work, nothing
	// planned this round) host the replicas; tasks with the fewest copies
	// are served first.
	if len(up) <= remaining || e.params.MaxReplicas == 0 {
		return nil
	}
	idle := e.idle[:0]
	for _, q := range up {
		if !e.workers[q].busy() && rs.NQ[q] == 0 {
			idle = append(idle, q)
		}
	}
	e.idle = idle
	if len(idle) == 0 {
		return nil
	}
	// A task is replicable once it has at least one live or planned copy
	// (so replicas may launch in the same round as the original) and is
	// below the copy cap. Replicas go to the least-covered tasks first,
	// until idle processors or replication capacity run out. The buckets
	// track live copies; overlay this round's planned originals (each has
	// zero live copies, one planned copy) so they are replicable too.
	// schedule undoes the overlay after the round.
	copyCap := 1 + e.params.MaxReplicas
	for i := range e.plans {
		e.trk.bucketAdd(e.plans[i].task, 1)
	}
	for len(idle) > 0 {
		best, bestCopies := e.trk.leastCovered(copyCap)
		if e.slowChecks {
			e.verifyLeastCovered(best, bestCopies, copyCap)
		}
		if best == noTask {
			break
		}
		ti := TaskInfo{Task: best, Replica: true}
		pick := e.cfg.Scheduler.Pick(&e.view, idle, rs, ti)
		if pick == Decline {
			break // a scheduler that declines replicas declines them all
		}
		if err := e.notePick(rs, pick, true); err != nil {
			return err
		}
		e.plans = append(e.plans, plannedAssignment{task: best, worker: pick, replica: -1})
		e.trk.bucketMove(best, bestCopies+1)
		// The chosen processor is no longer idle.
		for i, q := range idle {
			if q == pick {
				idle = append(idle[:i], idle[i+1:]...)
				break
			}
		}
	}
	e.idle = idle
	return nil
}

// notePick validates a scheduler pick in O(1) — equivalent to membership in
// the slate handed to Pick — and updates the round state. The originals
// slate is exactly the UP set (states are fixed within a slot). The replica
// slate is exactly the UP workers with no begun work and no plan this round:
// it starts as those, and a pick both leaves it and moves its NQ off zero.
func (e *engine) notePick(rs *RoundState, pick int, replica bool) error {
	if pick < 0 || pick >= len(e.workers) || e.states[pick] != avail.Up ||
		(replica && (e.workers[pick].busy() || rs.NQ[pick] != 0)) {
		return fmt.Errorf("sim: scheduler %q picked ineligible processor %d",
			e.cfg.Scheduler.Name(), pick)
	}
	if rs.NQ[pick] == 0 && !e.workers[pick].busy() {
		rs.NActive++
	}
	rs.NQ[pick]++
	rs.Picks++
	return nil
}

// buildView refreshes the scheduler snapshot incrementally: only workers in
// the dirty set — those whose availability state, pipeline occupancy, or
// progress changed since the last refresh — get their ProcView recomputed.
// The remaining-task count is maintained by the completion/barrier sites.
// Every call stamps a fresh (process-wide unique) View.Epoch; refreshed
// workers get that stamp in ProcEpochs, which is the change-tracking
// contract incremental scorers rely on.
func (e *engine) buildView() {
	e.view.Slot = e.slot
	e.view.Iteration = e.iter
	e.view.IterTasks = len(e.tasks)
	e.view.UpWorkers = e.nUp
	e.view.Epoch = e.nextEpoch()
	e.view.SlowChecks = e.slowChecks
	for _, i := range e.dirtyProcs {
		e.fillProcView(i, &e.view.Procs[i])
		e.view.ProcEpochs[i] = e.view.Epoch
		e.procDirty[i] = false
	}
	e.dirtyProcs = e.dirtyProcs[:0]
	if e.slowChecks {
		e.verifyView()
	}
}

// nextEpoch hands out the engine's next reserved epoch, reserving a new
// block when the current one is spent.
func (e *engine) nextEpoch() int64 {
	if e.epoch == e.epochEnd {
		e.epochEnd = epochCounter.Add(epochBlock)
		e.epoch = e.epochEnd - epochBlock
	}
	e.epoch++
	return e.epoch
}

// fillProcView computes worker i's scheduler snapshot from its live state,
// writing it in place. It is the single source of truth for both buildView's
// dirty refresh and the full-rebuild reference (buildViewFull), so the two
// can only diverge through missed dirty marks — which the slow checks and
// the golden tests pin down.
func (e *engine) fillProcView(i int, pv *ProcView) {
	w := &e.workers[i]
	pv.ID = i
	pv.W = w.proc.W
	pv.Model = w.proc.Avail
	pv.Analytics = w.analytics
	pv.State = e.states[i]
	pv.RemProgram = w.remProgram(e.params.Tprog)
	pv.HasComputing = w.computing != nil
	pv.HasIncoming = w.incoming != nil
	if w.computing != nil {
		pv.ComputingRem = w.proc.W - w.computing.computeDone
	} else {
		pv.ComputingRem = 0
	}
	if w.incoming != nil {
		pv.IncomingRem = e.params.Tdata - w.incoming.dataRecv
	} else {
		pv.IncomingRem = 0
	}
}

// allocateChannels grants the ncom channels: first to in-flight transfer
// chains (originals before replicas), then to new planned assignments in
// scheduler order. It returns the number of channels used. A ChannelRanker's
// plans all bind before any channel is granted, and its chains are served
// in rank order (rankedChains).
func (e *engine) allocateChannels() int {
	channels := e.params.Ncom
	used := 0
	tprog, tdata := e.params.Tprog, e.params.Tdata

	// Continuations: bound chains on UP workers needing slots, originals
	// (ascending worker) before replicas (ascending worker) — exactly the
	// two UP-chain indexes in turn, each worker holding at most one chain.
	// Serving a chain can only drop the served worker from its index, which
	// the ascending walk has already passed.
	if e.slowChecks {
		e.verifyChains()
	}
	if e.ranker != nil {
		e.conts = e.rankedChains(e.conts[:0])
		for _, ct := range e.conts {
			if used >= channels {
				break
			}
			e.serveChain(ct.worker)
			used++
		}
	} else {
		for _, set := range [2]*idSet{&e.origChains, &e.replicaChains} {
			for i := set.min(); i != noWorker && used < channels; i = set.next(i) {
				e.serveChain(i)
				used++
			}
		}
	}

	// New materializations, in plan order (originals were planned first). A
	// ChannelRanker's plans are bound already, so this skips them all. Every
	// plan is on an UP worker (the slates are UP and states are fixed within
	// a slot), and an original's task is pending, so no worker computes it.
	for _, pl := range e.plans {
		w := &e.workers[pl.worker]
		if w.incoming != nil {
			continue // pipeline occupied (an earlier plan took the slot)
		}
		if w.hasProgram(tprog) && tdata == 0 {
			// Zero-cost image: bind and complete instantly, no channel, no
			// chain entry (the transfer is already done).
			e.bindCopy(pl)
			continue
		}
		if used >= channels {
			continue // plan evaporates; re-planned next slot
		}
		e.bindCopy(pl)
		e.serveChain(pl.worker)
		used++
	}

	if used > e.stats.PeakTransfers {
		e.stats.PeakTransfers = used
	}
	return used
}

// serveChain grants one channel slot to worker i's bound chain (UP, needing
// transfer): program first, then the task data.
func (e *engine) serveChain(i int) {
	w := &e.workers[i]
	if !w.hasProgram(e.params.Tprog) {
		e.stats.ProgramSlots++
	}
	w.advanceTransfer(e.params.Tprog, e.params.Tdata)
	e.markDirty(i)
	e.syncChain(i)
	e.stats.ChannelSlots++
}

// rankedChains binds every plan of a ChannelRanker's round that lands on a
// free incoming slot (every plan is on an UP worker), channel or not (a
// zero-cost image with its transfer already done), then appends the bound
// chains on UP workers to conts in ascending rank.
func (e *engine) rankedChains(conts []contRec) []contRec {
	for _, pl := range e.plans {
		if e.workers[pl.worker].incoming == nil {
			e.bindCopy(pl)
			e.syncChain(pl.worker)
		}
	}
	for _, set := range [2]*idSet{&e.origChains, &e.replicaChains} {
		for i := set.min(); i != noWorker; i = set.next(i) {
			conts = append(conts, contRec{worker: i})
		}
	}
	// Ranks only matter when the chains outnumber the channels: served
	// chains advance independently of one another.
	if len(conts) > e.params.Ncom {
		for k := range conts {
			conts[k].rank = e.ranker.ChannelRank(conts[k].worker)
		}
		slices.SortFunc(conts, func(a, b contRec) int { return cmp.Compare(a.rank, b.rank) })
	}
	return conts
}

// bindCopy attaches a planned copy to its worker's free incoming slot and
// updates bookkeeping. A zero-cost image (program held, Tdata = 0) binds
// with its transfer already done. The worker's chain membership is left to
// the caller, which serves or indexes the chain next.
func (e *engine) bindCopy(pl plannedAssignment) {
	w := &e.workers[pl.worker]
	was := e.availKey(pl.worker)
	replica := pl.replica
	if replica != 0 {
		e.nextReplica[pl.task]++
		replica = e.nextReplica[pl.task]
		e.stats.ReplicasStarted++
	}
	c := e.newCopy(pl.task, replica)
	c.dataDone = w.hasProgram(e.params.Tprog) && e.params.Tdata == 0
	w.incoming = c
	e.taskGainedCopy(pl.task, pl.worker)
	e.reindexAvail(pl.worker, was)
	e.markDirty(pl.worker)
	e.stats.CopiesStarted++
	kind := EvDataStart
	if !w.hasProgram(e.params.Tprog) {
		kind = EvProgramStart
	}
	e.emitCopy(kind, pl.worker, c)
}

// compute advances every eligible computation by one slot and returns the
// number of workers that computed. Workers whose computation reached W are
// recorded as this slot's completion candidates for finishSlot.
func (e *engine) compute() int {
	computing := 0
	e.finishers = e.finishers[:0]
	// Only UP workers can compute: walk the UP index (ascending, like the
	// full scan) instead of all P workers.
	for i := e.upSet.min(); i != noWorker; i = e.upSet.next(i) {
		w := &e.workers[i]
		if w.computing == nil || !w.hasProgram(e.params.Tprog) {
			continue
		}
		if w.computing.computeDone == 0 {
			e.emitCopy(EvComputeStart, i, w.computing)
		}
		w.computing.computeDone++
		if w.computing.computeDone >= w.proc.W {
			e.finishers = append(e.finishers, i)
		}
		e.markDirty(i)
		e.stats.ComputeSlots++
		computing++
	}
	return computing
}

// finishSlot records completions, cancels surviving copies of completed
// tasks, promotes data-complete prefetches, and handles iteration barriers.
func (e *engine) finishSlot() {
	// Completions: only a worker whose computation advanced to W this slot
	// can complete, so the candidates are exactly compute's finishers
	// (ascending worker order, like the full scan). A finisher's copy may
	// have been cancelled by an earlier finisher of the same task, which
	// drops every other holder's copy; so a finisher whose copy survives
	// holds an uncompleted task.
	for _, i := range e.finishers {
		w := &e.workers[i]
		c := w.computing
		if c == nil || c.computeDone < w.proc.W {
			continue
		}
		was := e.availKey(i)
		w.computing = nil
		e.reindexAvail(i, was)
		e.markDirty(i)
		e.tasks[c.task].completed = true
		e.taskLostCopy(c.task, i)
		e.trk.remaining--
		e.trk.bucketRemove(c.task)
		e.stats.TasksCompleted++
		e.emitCopy(EvTaskComplete, i, c)
		// Cancel all other live copies of this task — exactly the recorded
		// holders (at most copyCap workers), not a scan of all P. The task is
		// completed, so the drops only adjust the raw copy count — it is
		// already out of every scheduler index. Snapshot and sort the holders
		// ascending so the cancellation events keep the full scan's worker
		// order (insertion sort: the list has at most MaxReplicas entries).
		hs := e.holderScratch[:0]
		for _, h := range e.holders[c.task] {
			if int(h) != i {
				hs = append(hs, h)
			}
		}
		for a := 1; a < len(hs); a++ {
			for b := a; b > 0 && hs[b] < hs[b-1]; b-- {
				hs[b], hs[b-1] = hs[b-1], hs[b]
			}
		}
		e.holderScratch = hs
		for _, h := range hs {
			e.dropCopies(int(h), c.task, true)
		}
		e.releaseCopy(c)
	}

	// Promotions: a data-complete prefetch starts computing next slot. A
	// worker can newly qualify only through a change made after this slot's
	// buildView (its transfer completed, or its computing slot emptied), so
	// the current dirty set contains every candidate; promote itself is a
	// no-op on the rest. Promotions change no scheduler-visible state the
	// mark sites haven't already flagged, and the dirty set is only
	// consumed at the next buildView.
	for _, i := range e.dirtyProcs {
		was := e.availKey(i)
		if e.workers[i].promote() {
			e.reindexAvail(i, was)
		}
	}
	if e.slowChecks {
		e.verifyPipelines()
	}

	// Iteration barrier: the incremental remaining count makes this O(1).
	if e.trk.remaining != 0 {
		return
	}
	e.emit(Event{Slot: e.slot, Kind: EvIterationDone, Worker: -1, Task: -1, Replica: -1, Iteration: e.iter})
	e.ends = append(e.ends, e.slot+1)
	e.iter++
	if e.iter >= e.params.Iterations {
		return
	}
	// Moldable runs decide the next iteration's size here, before the task
	// table is touched: at this instant every task is completed, so the
	// slow-check view recount agrees with the zeroed remaining counter. The
	// new iteration starts before this returns, so the event clock's
	// quiet-span check — which reads the pending set and remaining count
	// next — already sees it.
	n := len(e.tasks)
	if e.cfg.Alloc != nil {
		start := 0
		if e.iter >= 2 {
			start = e.ends[e.iter-2]
		}
		n = e.decideAlloc(IterationInfo{
			Iteration: e.iter - 1,
			Tasks:     len(e.tasks),
			Slots:     e.ends[e.iter-1] - start,
		})
	}
	// Task data is iteration-specific, programs are kept. Every completion
	// already cancelled its sibling copies, so by the time the last task
	// completes no worker holds any copy and the barrier only wipes the task
	// tables, O(m) rather than O(P): the slow checks assert that nothing is
	// left to drop.
	if e.slowChecks {
		e.verifyBarrierIdle()
	}
	e.startIteration(n)
}

// emit forwards an event to the configured sink.
func (e *engine) emit(ev Event) {
	if e.cfg.OnEvent != nil {
		e.cfg.OnEvent(ev)
	}
}

// emitCopy emits a kind event about copy c on worker.
func (e *engine) emitCopy(kind EventKind, worker int, c *copyState) {
	e.emit(Event{Slot: e.slot, Kind: kind, Worker: worker, Task: c.task, Replica: c.replica, Iteration: e.iter})
}
