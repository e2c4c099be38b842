package core

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/avail"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

// The batch disciplines' tests run with the engine's slow checks armed, so
// the ranked channel path is verified against the chain, pipeline and view
// oracles every slot, and the discipline's own reconciliation checks fire.

// batchAlwaysUp returns a platform of the given speeds plus always-UP replay
// processes (the attached Markov model is irrelevant to the disciplines but
// required by platform validation).
func batchAlwaysUp(t *testing.T, speeds ...int) (*platform.Platform, []avail.Process) {
	t.Helper()
	return batchReplay(t, speeds, func(int) string { return "u" })
}

// batchReplay builds a platform with the given speeds and per-worker replay
// vectors (a vector holds its last state past its end).
func batchReplay(t *testing.T, speeds []int, vec func(worker int) string) (*platform.Platform, []avail.Process) {
	t.Helper()
	m := avail.RandomMarkov3(rng.New(1))
	procs := make([]*platform.Processor, len(speeds))
	ps := make([]avail.Process, len(speeds))
	for i, w := range speeds {
		procs[i] = &platform.Processor{ID: i, W: w, Avail: m}
		v, err := avail.ParseVector(vec(i))
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = avail.NewVectorProcess(v)
	}
	return &platform.Platform{Processors: procs}, ps
}

// runBatch runs one discipline under the slow checks, collecting its events.
func runBatch(t *testing.T, pl *platform.Platform, procs []avail.Process, prm platform.Params, name string) (*sim.Result, []sim.Event) {
	t.Helper()
	var events []sim.Event
	rn := sim.NewRunner()
	rn.EnableSlowChecks()
	res, err := rn.Run(sim.Config{
		Platform: pl, Params: prm, Procs: procs, Scheduler: mustNew(t, name),
		OnEvent: func(ev sim.Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// copyStarts lists the (slot, worker, task) of every copy start.
func copyStarts(events []sim.Event) [][3]int {
	var out [][3]int
	for _, ev := range events {
		if ev.Kind == sim.EvProgramStart || ev.Kind == sim.EvDataStart {
			out = append(out, [3]int{ev.Slot, ev.Worker, ev.Task})
		}
	}
	return out
}

// TestBatchSingleJobSingleWorker pins the service model: program + data +
// compute, one slot each phase, no contention.
func TestBatchSingleJobSingleWorker(t *testing.T) {
	pl, procs := batchAlwaysUp(t, 3)
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 2, Tdata: 1}
	res, _ := runBatch(t, pl, procs, prm, BatchFCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	// Dispatch at slot 0; 2 program + 1 data slots, then 3 compute slots.
	if want := 6; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
	if res.Stats.ChannelSlots != 3 || res.Stats.ComputeSlots != 3 {
		t.Errorf("channel/compute slots = %d/%d, want 3/3",
			res.Stats.ChannelSlots, res.Stats.ComputeSlots)
	}
}

// TestBatchProgramPersistsAcrossIterations pins that the program is sent
// once per worker (absent crashes) while data is re-sent per task.
func TestBatchProgramPersistsAcrossIterations(t *testing.T) {
	pl, procs := batchAlwaysUp(t, 2)
	prm := platform.Params{M: 1, Iterations: 3, Ncom: 1, Tprog: 4, Tdata: 1}
	res, _ := runBatch(t, pl, procs, prm, BatchFCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	// Iteration 1: 4 prog + 1 data + 2 compute = 7; iterations 2, 3: 1 data
	// + 2 compute = 3 each.
	if want := 13; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
	if want := int64(4 + 3*1); res.Stats.ChannelSlots != want {
		t.Errorf("channel slots = %d, want %d", res.Stats.ChannelSlots, want)
	}
}

// TestBatchHeadOfLineBlockingVsBackfill is the canonical FCFS-vs-EASY
// split: a fast and a slow worker, many short jobs. FCFS's head always
// prefers waiting for the fast worker (smaller estimated completion), so
// the slow worker idles; EASY backfills it.
func TestBatchHeadOfLineBlockingVsBackfill(t *testing.T) {
	prm := platform.Params{M: 10, Iterations: 1, Ncom: 2, Tprog: 0, Tdata: 0}
	plF, procsF := batchAlwaysUp(t, 1, 3)
	fcfs, fcfsEvents := runBatch(t, plF, procsF, prm, BatchFCFS)
	plE, procsE := batchAlwaysUp(t, 1, 3)
	easy, easyEvents := runBatch(t, plE, procsE, prm, BatchEASY)
	if !fcfs.Completed || !easy.Completed {
		t.Fatal("runs did not complete")
	}
	onSlow := func(events []sim.Event) int {
		n := 0
		for _, s := range copyStarts(events) {
			if s[1] == 1 {
				n++
			}
		}
		return n
	}
	if n := onSlow(fcfsEvents); n != 0 {
		t.Errorf("FCFS started %d jobs on the slow worker", n)
	}
	if onSlow(easyEvents) == 0 {
		t.Error("EASY never backfilled the slow worker")
	}
	// FCFS: each job holds the fast worker two slots (bound with nothing to
	// transfer, then one compute slot), back to back.
	if want := 20; fcfs.Makespan != want {
		t.Errorf("FCFS makespan = %d, want %d", fcfs.Makespan, want)
	}
	if easy.Makespan >= fcfs.Makespan {
		t.Errorf("EASY makespan %d not better than FCFS %d", easy.Makespan, fcfs.Makespan)
	}
}

// TestBatchKillAndRequeue pins the failure path: a crash mid-service kills
// the job, wipes the program, and resubmits the task, which then runs again
// from scratch.
func TestBatchKillAndRequeue(t *testing.T) {
	// UP for 3 slots (program 1 + data 1 + compute 1 of 2), DOWN 1 slot
	// (kill), then UP forever.
	pl, procs := batchReplay(t, []int{2}, func(int) string { return "uuud" + strings.Repeat("u", 50) })
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 1, Tdata: 1}
	res, _ := runBatch(t, pl, procs, prm, BatchFCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Stats.Crashes != 1 || res.Stats.CopiesStarted != 2 {
		t.Errorf("crashes/dispatches = %d/%d, want 1/2", res.Stats.Crashes, res.Stats.CopiesStarted)
	}
	// Slot 3 is DOWN (kill); redispatch at slot 4: 1 prog + 1 data + 2
	// compute → completes at slot 7, makespan 8.
	if want := 8; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
}

// TestBatchSameSlotKillsRequeueByWorker pins the resubmission order of jobs
// killed in the same slot: ascending worker. Workers 0 and 1 run tasks 0 and
// 1 and both crash at slot 3, for good; worker 2 comes UP at slot 3, so the
// resubmitted queue's head starts there and the other job waits for it.
func TestBatchSameSlotKillsRequeueByWorker(t *testing.T) {
	prm := platform.Params{M: 2, Iterations: 1, Ncom: 2, Tprog: 1, Tdata: 1}
	for _, name := range BatchNames() {
		pl, procs := batchReplay(t, []int{3, 3, 1}, func(q int) string {
			if q == 2 {
				return "dddu"
			}
			return "uuud"
		})
		res, events := runBatch(t, pl, procs, prm, name)
		if !res.Completed {
			t.Fatalf("%s: run did not complete", name)
		}
		want := [][3]int{{0, 0, 0}, {0, 1, 1}, {3, 2, 0}, {6, 2, 1}}
		if got := copyStarts(events); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: copy starts (slot, worker, task) = %v, want %v", name, got, want)
		}
	}
}

// TestBatchReclaimedSuspends pins that RECLAIMED pauses a job without
// killing it: the reservation holds, progress resumes when the worker
// returns UP.
func TestBatchReclaimedSuspends(t *testing.T) {
	pl, procs := batchReplay(t, []int{2}, func(int) string { return "urru" + strings.Repeat("u", 50) })
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 0, Tdata: 1}
	res, _ := runBatch(t, pl, procs, prm, BatchFCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Stats.Crashes != 0 || res.Stats.CopiesStarted != 1 {
		t.Errorf("crashes/dispatches = %d/%d, want 0/1", res.Stats.Crashes, res.Stats.CopiesStarted)
	}
	// Slot 0: data; slots 1-2 reclaimed (suspended); slots 3-4: compute.
	if want := 5; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
}

// TestBatchNcomBoundsTransfers pins the master-link budget: with ncom=1, two
// concurrent transfers serialize, the later job waiting bound to its worker.
func TestBatchNcomBoundsTransfers(t *testing.T) {
	pl, procs := batchAlwaysUp(t, 1, 1)
	prm := platform.Params{M: 2, Iterations: 1, Ncom: 1, Tprog: 0, Tdata: 2}
	res, events := runBatch(t, pl, procs, prm, BatchFCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Stats.PeakTransfers != 1 {
		t.Errorf("peak transfers = %d, want 1", res.Stats.PeakTransfers)
	}
	// Job 0 transfers slots 0-1 and computes slot 2; job 1 (equal speeds,
	// dispatched to the idle worker at slot 0) transfers slots 2-3 and
	// computes slot 4.
	if want := 5; res.Makespan != want {
		t.Errorf("makespan = %d, want %d", res.Makespan, want)
	}
	if want := [][3]int{{0, 0, 0}, {0, 1, 1}}; !reflect.DeepEqual(copyStarts(events), want) {
		t.Errorf("copy starts = %v, want %v", copyStarts(events), want)
	}
}

// TestBatchChannelsServeSubmissionOrder pins the master link's priority:
// bound transfers are served by job ID, not by worker. Worker 0 is DOWN at
// slot 0, so job 0 binds worker 1 there and job 1 binds worker 0 at slot 1;
// with one channel, job 0 finishes its data first.
func TestBatchChannelsServeSubmissionOrder(t *testing.T) {
	pl, procs := batchReplay(t, []int{1, 1}, func(q int) string { return []string{"du", "u"}[q] })
	prm := platform.Params{M: 2, Iterations: 1, Ncom: 1, Tprog: 0, Tdata: 2}
	res, events := runBatch(t, pl, procs, prm, BatchFCFS)
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if want := [][3]int{{0, 1, 0}, {1, 0, 1}}; !reflect.DeepEqual(copyStarts(events), want) {
		t.Fatalf("copy starts = %v, want %v", copyStarts(events), want)
	}
	var computes [][2]int // (slot, worker)
	for _, ev := range events {
		if ev.Kind == sim.EvComputeStart {
			computes = append(computes, [2]int{ev.Slot, ev.Worker})
		}
	}
	if want := [][2]int{{2, 1}, {4, 0}}; !reflect.DeepEqual(computes, want) {
		t.Errorf("compute starts (slot, worker) = %v, want %v", computes, want)
	}
}

// TestBatchCensoredRun pins the slot cap.
func TestBatchCensoredRun(t *testing.T) {
	pl, procs := batchReplay(t, []int{1}, func(int) string { return "d" })
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 0, Tdata: 0, MaxSlots: 40}
	res, _ := runBatch(t, pl, procs, prm, BatchFCFS)
	if res.Completed {
		t.Fatal("run on a dead worker completed")
	}
	if res.Makespan != 40 {
		t.Errorf("censored makespan = %d, want 40", res.Makespan)
	}
}

// batchRandomRun draws a random platform, parameters and availability
// trajectories from seed; mk returns fresh processes on the same
// trajectories on every call.
func batchRandomRun(seed uint64, maxP, maxM int) (pl *platform.Platform, prm platform.Params, mk func() []avail.Process) {
	r := rng.New(seed)
	p := 2 + r.Intn(maxP-1)
	pl = platform.RandomPlatform(r, p, 1+r.Intn(4))
	prm = platform.Params{
		M: 1 + r.Intn(maxM), Iterations: 1 + r.Intn(3),
		Ncom: 1 + r.Intn(p), Tprog: r.Intn(12), Tdata: r.Intn(4),
		MaxReplicas: r.Intn(3), MaxSlots: 300000,
	}
	trajSeed := r.Uint64()
	mk = func() []avail.Process {
		rr := rng.New(trajSeed)
		procs := make([]avail.Process, pl.P())
		for i, proc := range pl.Processors {
			procs[i] = proc.Avail.NewProcess(rr.Split(), proc.Avail.SampleStationary(rr))
		}
		return procs
	}
	return pl, prm, mk
}

// TestBatchConfigValidation pins that a batch run rejects the same bad
// configurations as any other sim run, and that an unknown discipline name
// fails at construction.
func TestBatchConfigValidation(t *testing.T) {
	pl, procs := batchAlwaysUp(t, 1)
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1}
	for _, name := range BatchNames() {
		cases := []struct {
			what string
			cfg  sim.Config
		}{
			{"nil platform", sim.Config{Params: prm, Procs: procs}},
			{"proc count mismatch", sim.Config{Platform: pl, Params: prm, Procs: nil}},
			{"nil proc", sim.Config{Platform: pl, Params: prm, Procs: []avail.Process{nil}}},
			{"bad params", sim.Config{Platform: pl, Params: platform.Params{}, Procs: procs}},
		}
		for _, c := range cases {
			c.cfg.Scheduler = mustNew(t, name)
			if _, err := sim.Run(c.cfg); err == nil {
				t.Errorf("%s %s: no error", name, c.what)
			}
		}
	}
	if _, err := New("batch-sjf", rng.New(1)); err == nil {
		t.Error("unknown discipline batch-sjf: no error")
	}
}

// TestBatchDeterminism pins that rerunning a scenario on fresh schedulers
// and fresh processes on the same trajectories reproduces the result.
func TestBatchDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		pl, prm, mk := batchRandomRun(seed, 8, 6)
		for _, name := range BatchNames() {
			run := func() *sim.Result {
				res, _ := runBatch(t, pl, mk(), prm, name)
				return res
			}
			if a, b := run(), run(); !reflect.DeepEqual(a, b) {
				t.Errorf("seed %d %s: reruns diverged: %+v vs %+v", seed, name, a, b)
			}
		}
	}
}

// TestBatchRunnerMatchesRun pins that a pooled Runner and scheduler
// reproduce one-shot results bit for bit across back-to-back runs of
// different shapes.
func TestBatchRunnerMatchesRun(t *testing.T) {
	rn := sim.NewRunner()
	rn.EnableSlowChecks()
	pooled := map[string]sim.Scheduler{}
	for _, name := range BatchNames() {
		pooled[name] = mustNew(t, name)
	}
	for seed := uint64(1); seed <= 12; seed++ {
		pl, prm, mk := batchRandomRun(seed, 8, 6)
		for _, name := range BatchNames() {
			oneShot, err := sim.Run(sim.Config{Platform: pl, Params: prm, Procs: mk(), Scheduler: mustNew(t, name)})
			if err != nil {
				t.Fatal(err)
			}
			again, err := rn.Run(sim.Config{Platform: pl, Params: prm, Procs: mk(), Scheduler: pooled[name]})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(oneShot, again) {
				t.Errorf("seed %d %s: pooled run diverged: %+v vs %+v", seed, name, oneShot, again)
			}
		}
	}
}

// batchInvariants follows the event stream of one run and checks the
// reservation contract: every copy is an original, a worker holds at most
// one copy at a time (no prefetch, no sharing), nothing is ever cancelled,
// and every started copy ends in a completion or a crash of its worker.
type batchInvariants struct {
	fail    func(format string, args ...any)
	holding map[int]int // worker -> task of its live copy
	starts  int
	ends    int
	kills   int // ends by a crash
}

func (c *batchInvariants) event(ev sim.Event) {
	switch ev.Kind {
	case sim.EvProgramStart, sim.EvDataStart:
		if ev.Replica != 0 {
			c.fail("slot %d: replica %d of task %d started", ev.Slot, ev.Replica, ev.Task)
		}
		if task, busy := c.holding[ev.Worker]; busy {
			c.fail("slot %d: worker %d took task %d while holding task %d", ev.Slot, ev.Worker, ev.Task, task)
		}
		c.holding[ev.Worker] = ev.Task
		c.starts++
	case sim.EvTaskComplete:
		if task, busy := c.holding[ev.Worker]; !busy || task != ev.Task {
			c.fail("slot %d: worker %d completed task %d it does not hold", ev.Slot, ev.Worker, ev.Task)
		}
		delete(c.holding, ev.Worker)
		c.ends++
	case sim.EvCrash:
		if _, busy := c.holding[ev.Worker]; busy {
			delete(c.holding, ev.Worker)
			c.ends++
			c.kills++
		}
	case sim.EvCopyCancelled:
		c.fail("slot %d: copy of task %d on worker %d cancelled", ev.Slot, ev.Task, ev.Worker)
	}
}

// runBatchChecked runs one random scenario under the invariant checker and
// the slow checks, then verifies the end-of-run accounting. It adds the
// run's kills to *kills.
func runBatchChecked(t *testing.T, seed uint64, name string, kills *int) bool {
	t.Helper()
	pl, prm, mk := batchRandomRun(seed, 9, 8)
	failed := false
	fail := func(format string, args ...any) {
		failed = true
		t.Errorf("seed %d %s: "+format, append([]any{seed, name}, args...)...)
	}
	chk := &batchInvariants{fail: fail, holding: map[int]int{}}
	rn := sim.NewRunner()
	rn.EnableSlowChecks()
	res, err := rn.Run(sim.Config{
		Platform: pl, Params: prm, Procs: mk(), Scheduler: mustNew(t, name),
		OnEvent: chk.event,
		Observer: func(r *sim.SlotReport) {
			if r.TransfersUsed > prm.Ncom {
				fail("slot %d: %d transfers exceed ncom=%d", r.Slot, r.TransfersUsed, prm.Ncom)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	*kills += chk.kills
	if res.Stats.CopiesStarted != chk.starts {
		fail("stats count %d copy starts, events %d", res.Stats.CopiesStarted, chk.starts)
	}
	if res.Completed {
		if chk.starts != chk.ends {
			fail("%d copies started, %d completed or crashed", chk.starts, chk.ends)
		}
		if res.Stats.TasksCompleted != prm.M*prm.Iterations {
			fail("completed run finished %d tasks, want %d", res.Stats.TasksCompleted, prm.M*prm.Iterations)
		}
		if len(res.IterationEnds) != prm.Iterations {
			fail("completed run recorded %d iteration ends, want %d", len(res.IterationEnds), prm.Iterations)
		}
	} else if live := chk.starts - chk.ends; live != len(chk.holding) || live > pl.P() {
		fail("censored run: %d copies live at the cap on %d holders", live, len(chk.holding))
	}
	for i := 1; i < len(res.IterationEnds); i++ {
		if res.IterationEnds[i] <= res.IterationEnds[i-1] {
			fail("iteration ends not increasing: %v", res.IterationEnds)
		}
	}
	return !failed
}

// TestBatchInvariantsRandomScenarios sweeps random scenarios through both
// disciplines under the invariant checker and the engine's slow checks.
func TestBatchInvariantsRandomScenarios(t *testing.T) {
	for _, name := range BatchNames() {
		name := name
		t.Run(strings.TrimPrefix(name, "batch-"), func(t *testing.T) {
			kills := 0
			f := func(seed uint64) bool { return runBatchChecked(t, seed, name, &kills) }
			if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
				t.Fatal(err)
			}
			if kills == 0 {
				t.Error("no job was killed: the crash path went unexercised")
			}
		})
	}
}
