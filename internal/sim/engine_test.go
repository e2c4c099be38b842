package sim_test

import (
	"strings"
	"testing"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

// steadyModel is an arbitrary valid Markov model for workers whose actual
// trajectory is supplied by vectors (the model only informs heuristics).
func steadyModel() *avail.Markov3 {
	return avail.MustMarkov3([3][3]float64{
		{0.95, 0.03, 0.02},
		{0.04, 0.90, 0.06},
		{0.05, 0.05, 0.90},
	})
}

// firstUp is a minimal deterministic scheduler: it picks the first eligible
// processor. It exercises the engine without heuristic behavior.
type firstUp struct{}

func (firstUp) Name() string { return "first-up" }
func (firstUp) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	return eligible[0]
}

// alwaysUp builds n processes that stay UP forever.
func alwaysUp(n int) []avail.Process {
	ps := make([]avail.Process, n)
	for i := range ps {
		ps[i] = avail.NewVectorProcess(avail.Vector{avail.Up})
	}
	return ps
}

// vectors builds processes from the paper's letter strings.
func vectors(t *testing.T, specs ...string) []avail.Process {
	t.Helper()
	ps := make([]avail.Process, len(specs))
	for i, s := range specs {
		v, err := avail.ParseVector(s)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = avail.NewVectorProcess(v)
	}
	return ps
}

func baseParams() platform.Params {
	return platform.Params{
		M: 1, Iterations: 1, Ncom: 1, Tprog: 2, Tdata: 1, MaxReplicas: 2,
	}
}

func TestSingleTaskTimeline(t *testing.T) {
	// One always-UP worker, w=2, Tprog=2, Tdata=1:
	// slots 0-1 program, slot 2 data, slots 3-4 compute -> makespan 5.
	pl := platform.Homogeneous(1, 2, steadyModel())
	res, err := sim.Run(sim.Config{
		Platform:  pl,
		Params:    baseParams(),
		Procs:     alwaysUp(1),
		Scheduler: firstUp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Makespan != 5 {
		t.Fatalf("makespan = %d, want 5 (=Tprog+Tdata+w)", res.Makespan)
	}
	if res.Stats.TasksCompleted != 1 {
		t.Fatalf("TasksCompleted = %d", res.Stats.TasksCompleted)
	}
	if res.Stats.ProgramSlots != 2 || res.Stats.ChannelSlots != 3 {
		t.Fatalf("transfer accounting: prog=%d chan=%d, want 2/3",
			res.Stats.ProgramSlots, res.Stats.ChannelSlots)
	}
}

func TestProgramReusedAcrossIterations(t *testing.T) {
	// Two iterations: the program is downloaded once, data twice.
	pl := platform.Homogeneous(1, 2, steadyModel())
	prm := baseParams()
	prm.Iterations = 2
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm, Procs: alwaysUp(1), Scheduler: firstUp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Iter 1: 5 slots; iter 2: data (1) + compute (2) = 3 slots. Total 8.
	if res.Makespan != 8 {
		t.Fatalf("makespan = %d, want 8", res.Makespan)
	}
	if res.Stats.ProgramSlots != 2 {
		t.Fatalf("program downloaded twice? ProgramSlots=%d", res.Stats.ProgramSlots)
	}
	if len(res.IterationEnds) != 2 || res.IterationEnds[0] != 5 || res.IterationEnds[1] != 8 {
		t.Fatalf("IterationEnds = %v", res.IterationEnds)
	}
}

func TestPipelinePrefetchOverlap(t *testing.T) {
	// m=2, one worker, w=3, Tdata=1, Tprog=0:
	// slot 0: data task0; slots 1-3 compute task0, data task1 at slot 1;
	// slots 4-6 compute task1 -> makespan 7.
	pl := platform.Homogeneous(1, 3, steadyModel())
	prm := platform.Params{M: 2, Iterations: 1, Ncom: 1, Tprog: 0, Tdata: 1}
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm, Procs: alwaysUp(1), Scheduler: firstUp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 7 {
		t.Fatalf("makespan = %d, want 7 (pipelined)", res.Makespan)
	}
}

func TestReclaimedSuspendsAndResumes(t *testing.T) {
	// Worker reclaimed during compute: slots extend but work is kept.
	// Tprog=0, Tdata=1, w=2. Vector: u r r u u -> data slot 0, compute
	// suspended at 1,2, compute 3,4 -> makespan 5.
	pl := platform.Homogeneous(1, 2, steadyModel())
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 0, Tdata: 1}
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm,
		Procs:     vectors(t, "urruu"),
		Scheduler: firstUp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Makespan != 5 {
		t.Fatalf("makespan = %d (completed=%v), want 5", res.Makespan, res.Completed)
	}
	if res.Stats.WastedComputeSlots != 0 {
		t.Fatalf("reclaimed must not waste work; wasted=%d", res.Stats.WastedComputeSlots)
	}
}

func TestDownLosesProgramAndWork(t *testing.T) {
	// Worker crashes mid-compute; after reboot everything restarts.
	// Tprog=1, Tdata=1, w=2. Vector: u u u d u u u u u ...
	// slots: 0 prog, 1 data, 2 compute(1), 3 DOWN (lose all),
	// 4 prog, 5 data, 6-7 compute -> makespan 8.
	pl := platform.Homogeneous(1, 2, steadyModel())
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 1, Tdata: 1}
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm,
		Procs:     vectors(t, "uuuduuuuu"),
		Scheduler: firstUp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Makespan != 8 {
		t.Fatalf("makespan = %d (completed=%v), want 8", res.Makespan, res.Completed)
	}
	if res.Stats.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Stats.Crashes)
	}
	if res.Stats.WastedComputeSlots != 1 {
		t.Fatalf("wasted compute = %d, want 1", res.Stats.WastedComputeSlots)
	}
	if res.Stats.WastedDataSlots != 1 {
		t.Fatalf("wasted data = %d, want 1", res.Stats.WastedDataSlots)
	}
	if res.Stats.WastedProgramSlots != 1 {
		t.Fatalf("wasted program = %d, want 1", res.Stats.WastedProgramSlots)
	}
}

func TestNcomLimitsParallelTransfers(t *testing.T) {
	// 4 workers, 4 tasks, ncom=2: peak simultaneous transfers must be 2.
	pl := platform.Homogeneous(4, 2, steadyModel())
	prm := platform.Params{M: 4, Iterations: 1, Ncom: 2, Tprog: 2, Tdata: 2}
	maxSeen := 0
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm, Procs: alwaysUp(4), Scheduler: firstUp{},
		Observer: func(r *sim.SlotReport) {
			if r.TransfersUsed > maxSeen {
				maxSeen = r.TransfersUsed
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete")
	}
	if maxSeen > 2 {
		t.Fatalf("observed %d simultaneous transfers with ncom=2", maxSeen)
	}
	if res.Stats.PeakTransfers != maxSeen {
		t.Fatalf("PeakTransfers=%d, observer saw %d", res.Stats.PeakTransfers, maxSeen)
	}
}

func TestNoContentionUsesAllWorkers(t *testing.T) {
	// ncom unbounded: 3 identical workers and 3 tasks run fully in parallel.
	pl := platform.Homogeneous(3, 2, steadyModel())
	prm := platform.Params{M: 3, Iterations: 1, Ncom: platform.NoContention, Tprog: 1, Tdata: 1}
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm, Procs: alwaysUp(3), Scheduler: roundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each worker: prog 0, data 1, compute 2-3 -> makespan 4.
	if res.Makespan != 4 {
		t.Fatalf("makespan = %d, want 4", res.Makespan)
	}
}

// roundRobin spreads tasks across eligible workers.
type roundRobin struct{}

func (roundRobin) Name() string { return "round-robin" }
func (roundRobin) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	best := eligible[0]
	for _, q := range eligible {
		if rs.NQ[q] < rs.NQ[best] {
			best = q
		}
	}
	return best
}

func TestReplicationCancelsLosers(t *testing.T) {
	// Two workers, one task, second worker much faster. firstUp assigns the
	// original to worker 0 (w=10); replication puts a copy on worker 1
	// (w=1), which wins; worker 0's copy must be cancelled.
	m := steadyModel()
	pl := &platform.Platform{Processors: []*platform.Processor{
		{ID: 0, W: 10, Avail: m},
		{ID: 1, W: 1, Avail: m},
	}}
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 2, Tprog: 1, Tdata: 1, MaxReplicas: 2}
	var cancelled, completed int
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm, Procs: alwaysUp(2), Scheduler: firstUp{},
		OnEvent: func(ev sim.Event) {
			switch ev.Kind {
			case sim.EvCopyCancelled:
				cancelled++
			case sim.EvTaskComplete:
				completed++
				if ev.Worker != 1 {
					t.Errorf("task completed on worker %d, want 1", ev.Worker)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Worker1: prog 0, data 1, compute 2 -> makespan 3.
	if res.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3", res.Makespan)
	}
	if res.Stats.ReplicasStarted != 1 {
		t.Fatalf("ReplicasStarted = %d, want 1", res.Stats.ReplicasStarted)
	}
	if cancelled != 1 || completed != 1 {
		t.Fatalf("cancelled=%d completed=%d, want 1/1", cancelled, completed)
	}
}

func TestReplicaCapRespected(t *testing.T) {
	// 5 workers, 1 task, MaxReplicas=2: at most 3 copies ever live.
	pl := platform.Homogeneous(5, 50, steadyModel())
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 5, Tprog: 1, Tdata: 1, MaxReplicas: 2}
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm, Procs: alwaysUp(5), Scheduler: firstUp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CopiesStarted != 3 {
		t.Fatalf("CopiesStarted = %d, want 3 (1 original + 2 replicas)", res.Stats.CopiesStarted)
	}
}

func TestNoReplicationWhenDisabled(t *testing.T) {
	pl := platform.Homogeneous(5, 10, steadyModel())
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 5, Tprog: 1, Tdata: 1, MaxReplicas: 0}
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm, Procs: alwaysUp(5), Scheduler: firstUp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CopiesStarted != 1 || res.Stats.ReplicasStarted != 0 {
		t.Fatalf("copies=%d replicas=%d, want 1/0",
			res.Stats.CopiesStarted, res.Stats.ReplicasStarted)
	}
}

func TestAllWorkersDeadCensors(t *testing.T) {
	pl := platform.Homogeneous(2, 1, steadyModel())
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 1, Tdata: 1, MaxSlots: 200}
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm,
		Procs:     vectors(t, "d", "d"),
		Scheduler: firstUp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("completed with all workers down")
	}
	if res.Makespan != 200 {
		t.Fatalf("censored makespan = %d, want cap 200", res.Makespan)
	}
}

func TestFlappingWorkerEventuallyFinishes(t *testing.T) {
	// Alternating u/r: transfers and compute stretch but complete.
	// Tprog=1, Tdata=1, w=2 and pattern ururu...:
	// up slots land at 0,2,4,6: prog@0, data@2, compute@4,6 -> makespan 7.
	pl := platform.Homogeneous(1, 2, steadyModel())
	prm := platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 1, Tdata: 1}
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm,
		Procs:     vectors(t, "ururururur"),
		Scheduler: firstUp{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Makespan != 7 {
		t.Fatalf("makespan = %d (completed=%v), want 7", res.Makespan, res.Completed)
	}
}

func TestMassCrashMidIterationRecovers(t *testing.T) {
	// Both workers crash at slot 3, then return; the iteration completes.
	pl := platform.Homogeneous(2, 2, steadyModel())
	prm := platform.Params{M: 2, Iterations: 1, Ncom: 2, Tprog: 1, Tdata: 1}
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm,
		Procs:     vectors(t, "uuuduuuuuuuu", "uuuduuuuuuuu"),
		Scheduler: roundRobin{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not recover from mass crash")
	}
	if res.Stats.Crashes != 2 {
		t.Fatalf("crashes = %d, want 2", res.Stats.Crashes)
	}
}

func TestSchedulerProtocolViolationIsError(t *testing.T) {
	pl := platform.Homogeneous(2, 2, steadyModel())
	_, err := sim.Run(sim.Config{
		Platform: pl, Params: baseParams(), Procs: alwaysUp(2),
		Scheduler: badScheduler{},
	})
	if err == nil {
		t.Fatal("ineligible pick not rejected")
	}
}

// slateBreaker picks the first eligible worker for originals and lets
// replica choose the worker for every replica pick.
type slateBreaker struct {
	replica func(v *sim.View, eligible []int) int
}

func (slateBreaker) Name() string { return "slate-breaker" }
func (s slateBreaker) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	if !ti.Replica {
		return eligible[0]
	}
	return s.replica(v, eligible)
}

// TestReplicaSlateRejectsIneligiblePicks pins the replica slate — the UP
// workers with no begun work and no plan this round — against picks that
// are UP but off it: a worker already holding a copy, and the worker the
// previous replica pick of the same round took. Both are protocol errors.
func TestReplicaSlateRejectsIneligiblePicks(t *testing.T) {
	cases := []struct {
		name    string
		replica func() func(*sim.View, []int) int
	}{
		{"busy worker", func() func(*sim.View, []int) int {
			return func(v *sim.View, eligible []int) int {
				if v.Slot == 0 {
					return sim.Decline // leave slot 1 a replica phase beside the original
				}
				for q, pv := range v.Procs {
					if pv.State == avail.Up && (pv.HasIncoming || pv.HasComputing) {
						return q
					}
				}
				return eligible[0] // no busy worker: a valid pick, which fails the test
			}
		}},
		{"worker picked this round", func() func(*sim.View, []int) int {
			last := -1
			return func(v *sim.View, eligible []int) int {
				if last < 0 {
					last = eligible[0]
				}
				return last
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// Three always-UP workers and one task: every round after the
			// original's has UP workers to spare, so replicas are planned.
			prm := platform.Params{M: 1, Iterations: 1, Ncom: 3, Tprog: 2, Tdata: 1, MaxReplicas: 2}
			_, err := sim.Run(sim.Config{
				Platform: platform.Homogeneous(3, 5, steadyModel()), Params: prm,
				Procs: alwaysUp(3), Scheduler: slateBreaker{replica: c.replica()},
			})
			if err == nil || !strings.Contains(err.Error(), "picked ineligible processor") {
				t.Fatalf("err = %v, want a picked-ineligible-processor error", err)
			}
		})
	}
}

type badScheduler struct{}

func (badScheduler) Name() string { return "bad" }
func (badScheduler) Pick(*sim.View, []int, *sim.RoundState, sim.TaskInfo) int {
	return 99
}

func TestConfigValidation(t *testing.T) {
	pl := platform.Homogeneous(1, 1, steadyModel())
	good := sim.Config{Platform: pl, Params: baseParams(), Procs: alwaysUp(1), Scheduler: firstUp{}}

	c := good
	c.Platform = nil
	if _, err := sim.Run(c); err == nil {
		t.Fatal("nil platform accepted")
	}
	c = good
	c.Procs = alwaysUp(2)
	if _, err := sim.Run(c); err == nil {
		t.Fatal("mismatched process count accepted")
	}
	c = good
	c.Procs = []avail.Process{nil}
	if _, err := sim.Run(c); err == nil {
		t.Fatal("nil process accepted")
	}
	c = good
	c.Scheduler = nil
	if _, err := sim.Run(c); err == nil {
		t.Fatal("nil scheduler accepted")
	}
	c = good
	c.Params.M = 0
	if _, err := sim.Run(c); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestDeterministicRuns(t *testing.T) {
	// Identical seeds produce identical makespans for every heuristic.
	for _, name := range core.Names() {
		run := func() int {
			scen := rng.New(777)
			pl := platform.RandomPlatform(scen, 10, 2)
			procs := make([]avail.Process, pl.P())
			procRng := rng.New(888)
			for i, p := range pl.Processors {
				procs[i] = p.Avail.NewProcess(procRng.Split(), avail.Up)
			}
			s, err := core.New(name, rng.New(999))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(sim.Config{
				Platform: pl,
				Params: platform.Params{
					M: 10, Iterations: 3, Ncom: 3, Tprog: 10, Tdata: 2, MaxReplicas: 2,
				},
				Procs:     procs,
				Scheduler: s,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Makespan
		}
		if a, b := run(), run(); a != b {
			t.Fatalf("%s: makespans %d != %d for identical seeds", name, a, b)
		}
	}
}

func TestInvariantsAcrossHeuristicsAndScenarios(t *testing.T) {
	// Broad integration sweep: every heuristic on several random scenarios,
	// checking engine invariants via the observer and final accounting.
	seeds := []uint64{1, 2, 3}
	for _, name := range core.Names() {
		for _, seed := range seeds {
			scen := rng.New(seed)
			pl := platform.RandomPlatform(scen, 8, 3)
			procs := make([]avail.Process, pl.P())
			for i, p := range pl.Processors {
				procs[i] = p.Avail.NewProcess(scen.Split(), p.Avail.SampleStationary(scen))
			}
			s, err := core.New(name, scen.Split())
			if err != nil {
				t.Fatal(err)
			}
			prm := platform.Params{
				M: 5, Iterations: 2, Ncom: 2, Tprog: 15, Tdata: 3,
				MaxReplicas: 2, MaxSlots: 100000,
			}
			res, err := sim.Run(sim.Config{
				Platform: pl, Params: prm, Procs: procs, Scheduler: s,
				Observer: func(r *sim.SlotReport) {
					if r.TransfersUsed > prm.Ncom {
						t.Fatalf("%s/seed %d: %d transfers > ncom=%d",
							name, seed, r.TransfersUsed, prm.Ncom)
					}
				},
			})
			if err != nil {
				t.Fatalf("%s/seed %d: %v", name, seed, err)
			}
			if !res.Completed {
				t.Fatalf("%s/seed %d: censored at %d slots", name, seed, res.Makespan)
			}
			if res.Stats.TasksCompleted != prm.M*prm.Iterations {
				t.Fatalf("%s/seed %d: %d tasks completed, want %d",
					name, seed, res.Stats.TasksCompleted, prm.M*prm.Iterations)
			}
			if res.Stats.PeakTransfers > prm.Ncom {
				t.Fatalf("%s/seed %d: peak transfers %d > ncom", name, seed, res.Stats.PeakTransfers)
			}
			if len(res.IterationEnds) != prm.Iterations {
				t.Fatalf("%s/seed %d: iteration ends %v", name, seed, res.IterationEnds)
			}
			for i := 1; i < len(res.IterationEnds); i++ {
				if res.IterationEnds[i] <= res.IterationEnds[i-1] {
					t.Fatalf("%s/seed %d: non-increasing iteration ends %v",
						name, seed, res.IterationEnds)
				}
			}
		}
	}
}

func TestEventStreamConsistency(t *testing.T) {
	// The event stream must show one task-complete per task per iteration
	// and never a compute-start before a program/data start on that worker.
	scen := rng.New(42)
	pl := platform.RandomPlatform(scen, 6, 2)
	procs := make([]avail.Process, pl.P())
	for i, p := range pl.Processors {
		procs[i] = p.Avail.NewProcess(scen.Split(), avail.Up)
	}
	prm := platform.Params{M: 4, Iterations: 2, Ncom: 2, Tprog: 5, Tdata: 1, MaxReplicas: 2}
	completes := map[[2]int]int{} // (iteration, task) -> count
	sched, _ := core.New("emct", nil)
	res, err := sim.Run(sim.Config{
		Platform: pl, Params: prm, Procs: procs, Scheduler: sched,
		OnEvent: func(ev sim.Event) {
			if ev.Kind == sim.EvTaskComplete {
				completes[[2]int{ev.Iteration, ev.Task}]++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("censored")
	}
	for key, n := range completes {
		if n != 1 {
			t.Fatalf("task %v completed %d times", key, n)
		}
	}
	if len(completes) != prm.M*prm.Iterations {
		t.Fatalf("%d distinct completions, want %d", len(completes), prm.M*prm.Iterations)
	}
}

func BenchmarkEngine20Procs(b *testing.B) {
	scen := rng.New(7)
	pl := platform.RandomPlatform(scen, 20, 3)
	prm := platform.Params{M: 20, Iterations: 10, Ncom: 10, Tprog: 15, Tdata: 3, MaxReplicas: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i))
		procs := make([]avail.Process, pl.P())
		for j, p := range pl.Processors {
			procs[j] = p.Avail.NewProcess(r.Split(), avail.Up)
		}
		sched, _ := core.New("emct*", nil)
		if _, err := sim.Run(sim.Config{Platform: pl, Params: prm, Procs: procs, Scheduler: sched}); err != nil {
			b.Fatal(err)
		}
	}
}
