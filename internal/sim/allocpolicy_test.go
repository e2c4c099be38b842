package sim_test

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sim"
)

// TestParseAllocPolicy pins the spec grammar: canonical names round-trip,
// defaults are applied, and malformed specs are rejected.
func TestParseAllocPolicy(t *testing.T) {
	good := map[string]string{
		"fixed":         "fixed",
		"maximum-iters": "maximum-iters",
		"split-into":    "split-into:2",
		"split-into:4":  "split-into:4",
		"reshape":       "reshape:2",
		"reshape:5":     "reshape:5",
	}
	for spec, want := range good {
		pol, err := sim.ParseAllocPolicy(spec)
		if err != nil {
			t.Fatalf("ParseAllocPolicy(%q): %v", spec, err)
		}
		if pol.Name() != want {
			t.Errorf("ParseAllocPolicy(%q).Name() = %q, want %q", spec, pol.Name(), want)
		}
		// Canonical names must re-parse to themselves.
		again, err := sim.ParseAllocPolicy(pol.Name())
		if err != nil || again.Name() != want {
			t.Errorf("canonical %q does not round-trip: %v", pol.Name(), err)
		}
	}
	bad := []string{"", "qcg", "fixed:3", "maximum-iters:1", "split-into:0",
		"split-into:x", "reshape:-1", "reshape:0", "split-into:"}
	for _, spec := range bad {
		if _, err := sim.ParseAllocPolicy(spec); err == nil {
			t.Errorf("ParseAllocPolicy(%q) accepted, want error", spec)
		}
	}
}

// TestAllocFixedMatchesNilPolicy is the refactor's behaviour-preservation
// proof at engine level: a run with the fixed policy must be bit-identical —
// result, event stream, observer reports — to the same run with no policy
// at all, in both time bases, with the slow-check oracles armed on the
// policy side. The only permitted difference is the moldable bookkeeping
// itself: IterationTasks is recorded (every entry Params.M) instead of nil.
func TestAllocFixedMatchesNilPolicy(t *testing.T) {
	names := append(core.Names(),
		"passive-emct", "proactive-emct", "remct", "deadline")
	plain := sim.NewRunner()
	moldable := sim.NewRunner()
	moldable.EnableSlowChecks()

	f := func(seed uint64, pickH uint8, event bool) bool {
		h := names[int(pickH)%len(names)]
		cfg := vectorScenarioConfig(t, seed, h, true)
		mode := sim.ModeSlot
		if event {
			mode = sim.ModeEvent
		}
		ref := runMode(t, plain, vectorScenarioConfig(t, seed, h, true), mode)

		fixed, err := sim.ParseAllocPolicy("fixed")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Alloc = fixed
		got := runMode(t, moldable, cfg, mode)

		iters := len(got.res.IterationEnds)
		if !got.res.Completed {
			iters++ // the censored in-progress iteration was sized too
		}
		if len(got.res.IterationTasks) != iters {
			t.Logf("seed %d %s: %d IterationTasks entries for %d iterations",
				seed, h, len(got.res.IterationTasks), iters)
			return false
		}
		for _, n := range got.res.IterationTasks {
			if n != cfg.Params.M {
				t.Logf("seed %d %s: fixed policy sized an iteration at %d, want M=%d",
					seed, h, n, cfg.Params.M)
				return false
			}
		}
		got.res.IterationTasks = nil
		return compareModes(t, seed, h, ref, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// spyAlloc wraps a policy and records each decision's inputs and output, so
// tests can check the engine consulted it at the right times with the right
// view.
type spyAlloc struct {
	inner sim.AllocationPolicy
	calls []spyCall
}

type spyCall struct {
	iteration, up, iterTasks, chose int
	prev                            sim.IterationInfo
}

func (s *spyAlloc) Name() string { return s.inner.Name() }
func (s *spyAlloc) TasksFor(v *sim.View, prev sim.IterationInfo) int {
	n := s.inner.TasksFor(v, prev)
	s.calls = append(s.calls, spyCall{
		iteration: v.Iteration, up: v.UpWorkers, iterTasks: v.IterTasks,
		chose: n, prev: prev,
	})
	return n
}

// TestAllocDecisionProtocol pins the engine/policy contract on the QCG-style
// policies: one decision per iteration, iteration indices in order, the -1
// run-boundary sentinel first, previous-iteration summaries consistent with
// the result, and the recorded counts equal to what the policy chose from
// the UP counts it was shown.
func TestAllocDecisionProtocol(t *testing.T) {
	for _, spec := range []string{"maximum-iters", "split-into:3"} {
		for _, mode := range []sim.Mode{sim.ModeSlot, sim.ModeEvent} {
			inner, err := sim.ParseAllocPolicy(spec)
			if err != nil {
				t.Fatal(err)
			}
			spy := &spyAlloc{inner: inner}
			cfg := vectorScenarioConfig(t, 42, "emct", false)
			cfg.Params.Iterations = 4
			cfg.Alloc = spy
			cfg.Mode = mode
			runner := sim.NewRunner()
			runner.EnableSlowChecks()
			res, err := runner.Run(cfg)
			if err != nil {
				t.Fatalf("%s %v: %v", spec, mode, err)
			}

			if len(spy.calls) != len(res.IterationTasks) {
				t.Fatalf("%s %v: %d decisions for %d recorded iteration sizes",
					spec, mode, len(spy.calls), len(res.IterationTasks))
			}
			for i, c := range spy.calls {
				if c.iteration != i {
					t.Fatalf("%s %v: decision %d carried View.Iteration %d", spec, mode, i, c.iteration)
				}
				if c.chose != res.IterationTasks[i] {
					t.Fatalf("%s %v: decision %d chose %d, result records %d",
						spec, mode, i, c.chose, res.IterationTasks[i])
				}
				if i == 0 {
					if c.prev.Iteration != -1 {
						t.Fatalf("%s %v: first decision got prev.Iteration %d, want -1", spec, mode, c.prev.Iteration)
					}
					continue
				}
				if c.prev.Iteration != i-1 || c.prev.Tasks != res.IterationTasks[i-1] {
					t.Fatalf("%s %v: decision %d got prev %+v, want iteration %d with %d tasks",
						spec, mode, i, c.prev, i-1, res.IterationTasks[i-1])
				}
				wantSlots := res.IterationEnds[i-1]
				if i >= 2 {
					wantSlots -= res.IterationEnds[i-2]
				}
				if c.prev.Slots != wantSlots {
					t.Fatalf("%s %v: decision %d got prev.Slots %d, want %d",
						spec, mode, i, c.prev.Slots, wantSlots)
				}
				// The decision view still describes the completed iteration's
				// table (the resize happens after the policy returns).
				if c.iterTasks != res.IterationTasks[i-1] {
					t.Fatalf("%s %v: decision %d saw IterTasks %d, want previous size %d",
						spec, mode, i, c.iterTasks, res.IterationTasks[i-1])
				}
				// QCG sizing: the choice is a pure function of the UP count the
				// engine exposed.
				want := c.up
				if spec == "split-into:3" {
					want = (c.up + 2) / 3
				}
				if want < 1 {
					want = 1
				}
				if c.chose != want {
					t.Fatalf("%s %v: decision %d chose %d from up=%d, want %d",
						spec, mode, i, c.chose, c.up, want)
				}
			}
		}
	}
}

// cyclingAlloc drives the resize machinery through a fixed size sequence —
// growth, shrink, and size-1 extremes — as a pure function of the iteration
// index, so both time bases decide identically.
type cyclingAlloc struct{ sizes []int }

func (c cyclingAlloc) Name() string { return "cycling" }
func (c cyclingAlloc) TasksFor(v *sim.View, _ sim.IterationInfo) int {
	return c.sizes[v.Iteration%len(c.sizes)]
}

// TestAllocEngineResizeCrossMode exercises per-iteration grow/shrink of the
// task tables — including growth past the initial Params.M capacity and
// shrink to a single task — under the full slow-check oracle set in both
// time bases, and requires the two modes to agree bit for bit on
// deterministic vector availability.
func TestAllocEngineResizeCrossMode(t *testing.T) {
	sizes := []int{1, 7, 3, 19, 2, 11}
	slotRunner := sim.NewRunner()
	slotRunner.EnableSlowChecks()
	eventRunner := sim.NewRunner()
	eventRunner.EnableSlowChecks()

	f := func(seed uint64) bool {
		mk := func() sim.Config {
			cfg := vectorScenarioConfig(t, seed, "emct", false)
			cfg.Params.Iterations = 6
			cfg.Alloc = cyclingAlloc{sizes: sizes}
			return cfg
		}
		slot := runMode(t, slotRunner, mk(), sim.ModeSlot)
		event := runMode(t, eventRunner, mk(), sim.ModeEvent)
		if !compareModes(t, seed, "emct+cycling", slot, event) {
			return false
		}
		for i, n := range slot.res.IterationTasks {
			if n != sizes[i%len(sizes)] {
				t.Logf("seed %d: iteration %d ran %d tasks, want %d", seed, i, n, sizes[i%len(sizes)])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestAllocReshapePooledRunsIdentical pins the pooling contract for the one
// stateful policy: a reshape instance reused across runs must reset itself
// on the run-boundary sentinel, so repeating the same run on the same
// runner and policy instance yields identical results.
func TestAllocReshapePooledRunsIdentical(t *testing.T) {
	pol, err := sim.ParseAllocPolicy("reshape:2")
	if err != nil {
		t.Fatal(err)
	}
	runner := sim.NewRunner()
	runner.EnableSlowChecks()
	run := func() *sim.Result {
		cfg := vectorScenarioConfig(t, 7, "emct", false)
		cfg.Params.Iterations = 5
		cfg.Alloc = pol
		res, err := runner.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); !reflect.DeepEqual(first, again) {
			t.Fatalf("pooled reshape run %d diverged: %+v vs %+v", i+2, first, again)
		}
	}
}

// TestAllocReshapeSteps pins the reshape policy's arithmetic directly: grow
// while per-task time improves, reverse on regression, stay within the
// [1, 4M] band.
func TestAllocReshapeSteps(t *testing.T) {
	pol, err := sim.ParseAllocPolicy("reshape:2")
	if err != nil {
		t.Fatal(err)
	}
	v := &sim.View{Params: &platform.Params{M: 8}}
	decide := func(prev sim.IterationInfo) int { return pol.TasksFor(v, prev) }

	if n := decide(sim.IterationInfo{Iteration: -1}); n != 8 {
		t.Fatalf("first decision = %d, want M=8", n)
	}
	// No baseline yet: keep growing.
	if n := decide(sim.IterationInfo{Iteration: 0, Tasks: 8, Slots: 80}); n != 10 {
		t.Fatalf("second decision = %d, want 10", n)
	}
	// Improved (8.0 per task): keep direction.
	if n := decide(sim.IterationInfo{Iteration: 1, Tasks: 10, Slots: 80}); n != 12 {
		t.Fatalf("after improvement = %d, want 12", n)
	}
	// Regressed (10.0 per task): reverse.
	if n := decide(sim.IterationInfo{Iteration: 2, Tasks: 12, Slots: 120}); n != 10 {
		t.Fatalf("after regression = %d, want 10", n)
	}
	// Walk it down with continued improvement, never below 1.
	n := 10
	for i := 3; i < 40; i++ {
		n = decide(sim.IterationInfo{Iteration: i, Tasks: n, Slots: n}) // 1.0 per task, always improving
		if n < 1 || n > 32 {
			t.Fatalf("iteration %d: size %d escaped the [1, 4M] band", i, n)
		}
	}
}

// TestAllocCensoredRunRecordsInProgressIteration pins the IterationTasks
// contract for censored runs: the in-progress iteration's size is recorded
// even though it never completed.
func TestAllocCensoredRunRecordsInProgressIteration(t *testing.T) {
	pol, err := sim.ParseAllocPolicy("fixed")
	if err != nil {
		t.Fatal(err)
	}
	cfg := vectorScenarioConfig(t, 3, "emct", false)
	cfg.Params.MaxSlots = 2 // censor long before the first barrier
	cfg.Params.Tprog = 10
	cfg.Alloc = pol
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run unexpectedly completed in 2 slots")
	}
	if len(res.IterationTasks) != 1 || res.IterationTasks[0] != cfg.Params.M {
		t.Fatalf("censored run recorded IterationTasks %v, want [%d]", res.IterationTasks, cfg.Params.M)
	}
}
