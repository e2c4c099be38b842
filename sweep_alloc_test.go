package volatile

import "testing"

// TestPooledTrialAllocationCeiling is the companion to the engine-level
// TestSteadyStateSlotAllocationCeiling: with a warm Runner, a full
// Scenario.RunWith — trial RNG, availability processes, engine, result —
// must allocate only a handful of run-level objects (the scheduler, its RNG
// stream, the Result and its IterationEnds). Before trial pooling the trial
// alone allocated ~2 objects per processor per run (one split PCG + one
// Markov process each, plus the process slice), i.e. 40+ allocations on the
// paper's 20-processor platform.
func TestPooledTrialAllocationCeiling(t *testing.T) {
	scn := NewScenario(11, Cell{Tasks: 5, Ncom: 5, Wmin: 2}, ScenarioOptions{})
	rn := NewRunner()
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := scn.RunWith(rn, "emct", seed); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run() // warm-up: sizes the engine buffers and the trial pool
	}
	allocs := testing.AllocsPerRun(50, run)
	t.Logf("%.1f allocs per pooled run (20-processor platform)", allocs)
	// Budget: scheduler + split RNG + Result + IterationEnds, with slack for
	// incidental interface boxing — far below the ~45 of the unpooled trial.
	const ceiling = 10
	if allocs > ceiling {
		t.Fatalf("pooled RunWith allocates %.1f objects per run, want <= %d (trial resources must be pooled)", allocs, ceiling)
	}
}

// TestPooledTraceRunAllocationSteadyState is the trace-path analogue: once
// the first runs have sized the replay-process pool, repeated RunWith calls
// on one traced scenario must not reallocate per-processor state.
func TestPooledTraceRunAllocationSteadyState(t *testing.T) {
	scn := NewScenario(12, Cell{Tasks: 4, Ncom: 4, Wmin: 1}, ScenarioOptions{Processors: 6, Iterations: 2})
	specs := make([]string, scn.Processors())
	// Ends UP so runs complete (past the vector, processors hold the last
	// state) instead of idling to the slot cap.
	base := "uuurduuuruuduuruuuduuruu"
	for i := range specs {
		specs[i] = base + base + base
	}
	traced, err := scn.Traced(specs)
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner()
	seed := uint64(0)
	run := func() {
		seed++
		if _, err := traced.RunWith(rn, "emct", seed); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	allocs := testing.AllocsPerRun(50, run)
	t.Logf("%.1f allocs per pooled trace run (6-processor platform)", allocs)
	const ceiling = 12
	if allocs > ceiling {
		t.Fatalf("pooled traced RunWith allocates %.1f objects per run, want <= %d (replay processes must be pooled)", allocs, ceiling)
	}
}
