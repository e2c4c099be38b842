package core

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/avail"
	"repro/internal/sim"
)

// Batch disciplines: the batch-scheduling baselines of "Dynamic Fractional
// Resource Scheduling vs. Batch Scheduling" (Casanova, Stillwell, Vivien).
// Every task of the current iteration is submitted as a rigid single-node
// job that holds an exclusive whole-worker reservation for its lifetime.
// The scheduler is availability-aware only in the crudest way a production
// batch system is: it will not dispatch onto a node it can see is offline,
// and it resubmits jobs whose node crashes. It never migrates, replicates or
// preempts, and it plans with optimistic runtime estimates that ignore
// volatility and master-link contention. Running on the same engine and the
// same availability trajectories as the fractional heuristics, it prices
// what the paper's fine-grained scheduling buys over batch allocation.
//
//   - FCFS: jobs start strictly in queue order. The head job is placed on
//     the worker with the smallest estimated completion time (estimated
//     free time + estimated service time); if that worker is busy the head
//     waits for it, and every job behind the head waits too, even while
//     slower workers sit idle.
//   - EASY: the same head placement, but while the head waits for its
//     reserved worker, jobs behind it backfill onto idle UP workers. A
//     backfilled job never touches the head's reservation, so under the
//     scheduler's own estimates backfilling never delays the head (as in
//     classic EASY, volatility can break this after the fact: if the
//     reserved worker crashes, a backfilled worker might have served the
//     head sooner).
//
// The engine binds a batch dispatch at once, whether or not a channel is
// free, and serves bound transfers in job-submission order
// (sim.ChannelRanker).

// Batch discipline names. They are registered beside the extensions and, like
// them, left out of Names().
const (
	// BatchFCFS is strict-order batch dispatch (head-of-line blocking).
	BatchFCFS = "batch-fcfs"
	// BatchEASY is FCFS dispatch plus EASY backfilling.
	BatchEASY = "batch-easy"
)

// BatchNames lists the batch disciplines.
func BatchNames() []string { return []string{BatchFCFS, BatchEASY} }

// batchJob is one submitted job: a task of the current iteration and its
// submission ID. IDs follow submission order; a resubmitted job gets a
// fresh, larger ID. An ID of -1 marks an idle worker or a started queue
// entry.
type batchJob struct {
	task int
	id   int64
}

// batchWorker is a discipline's record of one worker.
type batchWorker struct {
	// job is the running job (id -1 when idle).
	job batchJob
	// finishing reports that the last view showed the job one UP compute
	// slot from done.
	finishing bool
	// cost is the estimated completion time of a new job placed here (see
	// placeHead), or noSlot for an idle worker that is not UP.
	cost int
}

// noSlot is the cost of a worker no job can be placed on.
const noSlot = math.MaxInt

// batchSched runs one batch discipline. It keeps its own FIFO queue and
// reconciles it with the engine once per slot, in Cancel: a worker whose
// job vanished from its pipeline either completed it (its last view showed
// one UP compute slot left) or crashed, and a crashed job is resubmitted at
// the tail. Cancel then plans the round's dispatches, and Pick hands each
// dispatched task its worker.
type batchSched struct {
	name     string
	backfill bool
	// run and iter identify the engine run and the iteration whose jobs
	// have been submitted; nextID is the next submission ID.
	run    int64
	iter   int
	nextID int64
	// queue holds the waiting jobs, head first.
	queue   []batchJob
	workers []batchWorker
	// picks[t] is the worker this round dispatched task t to, or Decline.
	picks []int
}

// NewBatch returns the FCFS discipline, or EASY when backfill is set.
func NewBatch(backfill bool) sim.Scheduler {
	if backfill {
		return &batchSched{name: BatchEASY, backfill: true}
	}
	return &batchSched{name: BatchFCFS}
}

// Name implements sim.Scheduler.
func (s *batchSched) Name() string { return s.name }

// PoolSafe implements sim.Poolable: all state is rebuilt at every run
// boundary (View.Run).
func (s *batchSched) PoolSafe() bool { return true }

// ChannelRank implements sim.ChannelRanker: bound transfers are served in
// job-submission order.
func (s *batchSched) ChannelRank(worker int) int64 { return s.workers[worker].job.id }

// Pick implements sim.Scheduler: it returns the worker Cancel dispatched the
// task to, and declines every other task and every replica.
func (s *batchSched) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	if ti.Replica || ti.Task >= len(s.picks) {
		return sim.Decline
	}
	q := s.picks[ti.Task]
	s.picks[ti.Task] = sim.Decline
	return q
}

// Cancel implements sim.Canceller. It never cancels anything: the engine
// calls it at the start of every round, which is where the discipline
// reconciles its queue and plans the round's dispatches.
func (s *batchSched) Cancel(v *sim.View) []int {
	if v.Run != s.run || len(s.workers) != len(v.Procs) {
		s.reset(v)
	}
	tdata, tprog := v.Params.Tdata, v.Params.Tprog
	for q := range s.workers {
		w, pv := &s.workers[q], &v.Procs[q]
		if w.job.id >= 0 {
			// The optimistic estimate ignores crashes: a busy worker will
			// hold the program when its next job starts.
			switch {
			case pv.HasComputing:
				w.cost = pv.ComputingRem + tdata + pv.W
			case pv.HasIncoming:
				w.cost = pv.RemProgram + pv.IncomingRem + pv.W + tdata + pv.W
			default:
				if !w.finishing {
					if v.SlowChecks && pv.State != avail.Down {
						panic(fmt.Sprintf("core: %s: job %d left worker %d (%v) without completing or crashing",
							s.name, w.job.id, q, pv.State))
					}
					s.submit(w.job.task)
				}
				w.job.id = -1
			}
			w.finishing = pv.State == avail.Up && pv.ComputingRem == 1
		}
		if w.job.id < 0 {
			// Idle: a new job's service is program (if the worker lacks
			// it) + data + compute at full availability.
			switch {
			case pv.State != avail.Up:
				w.cost = noSlot
			case pv.RemProgram > 0:
				w.cost = tprog + tdata + pv.W
			default:
				w.cost = tdata + pv.W
			}
		}
	}
	if v.Iteration != s.iter {
		// Every job of the previous iteration completed at its barrier.
		s.iter = v.Iteration
		for len(s.picks) < v.IterTasks {
			s.picks = append(s.picks, sim.Decline)
		}
		for t := 0; t < v.IterTasks; t++ {
			s.submit(t)
		}
	}
	if v.SlowChecks {
		for t, q := range s.picks {
			if q != sim.Decline {
				panic(fmt.Sprintf("core: %s: task %d was dispatched to worker %d but never picked", s.name, t, q))
			}
		}
	}
	s.dispatch(v)
	return nil
}

// reset starts a new run on v's platform.
func (s *batchSched) reset(v *sim.View) {
	s.run, s.iter, s.nextID = v.Run, -1, 0
	s.queue = s.queue[:0]
	s.workers = slices.Grow(s.workers[:0], len(v.Procs))[:len(v.Procs)]
	for q := range s.workers {
		s.workers[q] = batchWorker{job: batchJob{id: -1}}
	}
	for t := range s.picks {
		s.picks[t] = sim.Decline
	}
}

// submit appends a job for task t at the queue tail.
func (s *batchSched) submit(t int) {
	s.queue = append(s.queue, batchJob{task: t, id: s.nextID})
	s.nextID++
}

// placeHead finds the worker minimizing the head job's estimated completion
// time: estimated free time (0 for an idle UP worker, the remaining service
// for a busy one, never for an idle offline one) plus estimated service.
// Ties break toward the lowest worker ID; -1 means no worker is usable.
func (s *batchSched) placeHead() int {
	best, bestCost := -1, noSlot
	for q := range s.workers {
		if c := s.workers[q].cost; c < bestCost {
			best, bestCost = q, c
		}
	}
	return best
}

// dispatch starts queued jobs: heads while their best worker is idle; once
// the head waits for a busy worker, EASY backfills the jobs behind it.
// Started jobs leave the queue.
func (s *batchSched) dispatch(v *sim.View) {
	for h := range s.queue {
		q := s.placeHead()
		if q < 0 {
			break
		}
		if s.workers[q].job.id >= 0 {
			if s.backfill {
				s.backfillFrom(v, h+1)
			}
			break
		}
		s.start(v, h, q)
	}
	s.queue = slices.DeleteFunc(s.queue, func(j batchJob) bool { return j.id < 0 })
}

// backfillFrom starts the jobs from queue index i on, in queue order, each
// on the idle UP worker with its smallest estimated service. The head's
// reserved worker is busy, so it is never a candidate.
func (s *batchSched) backfillFrom(v *sim.View, i int) {
	for ; i < len(s.queue); i++ {
		best, bestCost := -1, noSlot
		for q := range s.workers {
			if w := &s.workers[q]; w.cost < bestCost && w.job.id < 0 {
				best, bestCost = q, w.cost
			}
		}
		if best < 0 {
			return
		}
		s.start(v, i, best)
	}
}

// start dispatches queue entry i onto idle UP worker q, whose cost turns
// from the job's service time into its completion time for the next job.
func (s *batchSched) start(v *sim.View, i, q int) {
	j := s.queue[i]
	w := &s.workers[q]
	w.job = j
	w.cost += v.Params.Tdata + v.Procs[q].W
	s.picks[j.task] = q
	s.queue[i].id = -1
}
