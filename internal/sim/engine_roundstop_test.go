package sim_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

// stopCounter forwards a PickSkipper heuristic unchanged (PoolSafe and
// Cancel are not needed by the heuristics below) and counts the rounds the
// engine ended early, the picks they skipped, and the channel-budget stops
// among them, plus the original-task Picks made and skipped in slot 0.
type stopCounter struct {
	sim.Scheduler
	stops, skipped, budgetStops int
	firstPicks, firstSkipped    int
}

func (c *stopCounter) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	if v.Slot == 0 && !ti.Replica {
		c.firstPicks++
	}
	return c.Scheduler.Pick(v, eligible, rs, ti)
}

func (c *stopCounter) SkipPicks(v *sim.View, eligible []int, rs *sim.RoundState, n int) {
	c.stops++
	c.skipped += n
	if v.Slot == 0 {
		c.firstSkipped += n
	}
	if freeUnpicked(v, eligible, rs) {
		c.budgetStops++
	}
	c.Scheduler.(sim.PickSkipper).SkipPicks(v, eligible, rs, n)
}

// freeUnpicked reports whether some worker on the slate has a free incoming
// slot and no pick this round: a round stopped there ended at its channel
// budget, not because the free workers ran out.
func freeUnpicked(v *sim.View, eligible []int, rs *sim.RoundState) bool {
	for _, q := range eligible {
		if !v.Procs[q].HasIncoming && rs.NQ[q] == 0 {
			return true
		}
	}
	return false
}

// TestRoundStopSlowCheckHolds runs slow-checked random scenarios with
// heuristics that end rounds early: every early stop is verified against
// full scans (no free, unpicked worker left, or else a channel budget
// reached exactly) and a walk of the pending originals (the skipped count).
// The scenarios must actually take both stops, or the check proves nothing.
func TestRoundStopSlowCheckHolds(t *testing.T) {
	runner := sim.NewRunner()
	runner.EnableSlowChecks()
	for _, name := range []string{"emct", "mct*", "ud", "random", "random2w", "deadline"} {
		ctr := &stopCounter{}
		for seed := uint64(0); seed < 40; seed++ {
			cfg := randomScenarioConfig(t, seed, name)
			ctr.Scheduler = cfg.Scheduler
			cfg.Scheduler = ctr
			if _, err := runner.Run(cfg); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
		if ctr.stops == 0 || ctr.skipped == 0 || ctr.budgetStops == 0 {
			t.Fatalf("%s: %d early stops (%d at a channel budget), %d picks skipped; want all non-zero",
				name, ctr.stops, ctr.budgetStops, ctr.skipped)
		}
		t.Logf("%s: %d early stops (%d at a channel budget), %d picks skipped",
			name, ctr.stops, ctr.budgetStops, ctr.skipped)
	}
}

// TestRoundStopSlowCheckCatchesMiscount mutation-tests the round-stop slow
// check: with the free-worker budget spent on every first pick, occupied
// workers included, rounds stop while a free worker is still unpicked, and
// the check must panic on some scenario.
func TestRoundStopSlowCheckCatchesMiscount(t *testing.T) {
	caught := 0
	for seed := uint64(0); seed < 40; seed++ {
		func() {
			defer func() {
				if recover() != nil {
					caught++
				}
			}()
			runner := sim.NewRunner()
			runner.EnableSlowChecks()
			runner.MutateFreeLeft(true)
			if _, err := runner.Run(randomScenarioConfig(t, seed, "emct")); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}()
	}
	if caught == 0 {
		t.Fatal("slow check never caught the miscounted free-worker budget")
	}
	t.Logf("miscount caught on %d/40 scenarios", caught)
}

// TestRoundStopSlowCheckCatchesBudgetMiscount mutation-tests the
// channel-budget half of the round-stop slow check: with the round stopping
// one bindable pick short of the budget, a plan that would have found a
// channel is never made, and the check must panic on some scenario.
func TestRoundStopSlowCheckCatchesBudgetMiscount(t *testing.T) {
	caught := 0
	for seed := uint64(0); seed < 40; seed++ {
		func() {
			defer func() {
				if recover() != nil {
					caught++
				}
			}()
			runner := sim.NewRunner()
			runner.EnableSlowChecks()
			runner.MutateChannelBudget(true)
			if _, err := runner.Run(randomScenarioConfig(t, seed, "emct")); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}()
	}
	if caught == 0 {
		t.Fatal("slow check never caught the miscounted channel budget")
	}
	t.Logf("budget miscount caught on %d/40 scenarios", caught)
}

// spreadSkipper is a side-effect-free PickSkipper: it picks the eligible
// worker with the fewest picks this round (lowest ID on ties), so every
// free worker is reached before any is picked twice.
type spreadSkipper struct{}

func (spreadSkipper) Name() string { return "spread" }
func (spreadSkipper) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	best := eligible[0]
	for _, q := range eligible[1:] {
		if rs.NQ[q] < rs.NQ[best] {
			best = q
		}
	}
	return best
}
func (spreadSkipper) SkipPicks(*sim.View, []int, *sim.RoundState, int) {}

// fullRoundsOf hides s's PickSkipper side: the engine then runs every pick.
type fullRoundsOf struct{ inner sim.Scheduler }

func (f fullRoundsOf) Name() string { return f.inner.Name() }
func (f fullRoundsOf) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	return f.inner.Pick(v, eligible, rs, ti)
}

// TestRoundStopAtChannelBudget pins the channel-budget stop on hand-built
// all-UP platforms. With Ncom = 2, Tdata = 1 and more tasks than workers
// (so no replica phase follows), the first round plans exactly two
// bindable picks, one per channel, and skips every other original though
// free workers are left. With a replica phase pending the stop must not be
// taken, and random's stream must match the full-round run's.
func TestRoundStopAtChannelBudget(t *testing.T) {
	for _, mode := range []sim.Mode{sim.ModeSlot, sim.ModeEvent} {
		const p, m = 4, 7
		cfg := sim.Config{
			Platform: platform.Homogeneous(p, 2, steadyModel()),
			Params:   platform.Params{M: m, Iterations: 2, Ncom: 2, Tprog: 1, Tdata: 1, MaxReplicas: 2},
			Procs:    alwaysUp(p),
			Mode:     mode,
		}
		probe := &stopCounter{Scheduler: spreadSkipper{}}
		cfg.Scheduler = probe
		runner := sim.NewRunner()
		runner.EnableSlowChecks()
		bare, err := runner.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if probe.firstPicks != 2 || probe.firstSkipped != m-2 {
			t.Fatalf("mode %v: first round made %d picks and skipped %d, want 2 and %d",
				mode, probe.firstPicks, probe.firstSkipped, m-2)
		}
		if probe.budgetStops == 0 {
			t.Fatalf("mode %v: no round stopped at its channel budget", mode)
		}
		cfg.Scheduler = fullRoundsOf{spreadSkipper{}}
		cfg.Procs = alwaysUp(p)
		full, err := runner.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bare, full) {
			t.Fatalf("mode %v: budget-stopped run differs from the full-round run:\n got  %+v\n want %+v",
				mode, bare, full)
		}
	}

	// Six UP workers and at most three remaining tasks: every round has a
	// replica phase, so only the free-worker stop may end a round early.
	const p, m = 6, 3
	base := sim.Config{
		Platform: platform.Homogeneous(p, 3, steadyModel()),
		Params:   platform.Params{M: m, Iterations: 3, Ncom: 1, Tprog: 1, Tdata: 1, MaxReplicas: 2},
	}
	run := func(wrap func(sim.Scheduler) sim.Scheduler) (*sim.Result, [8]uint64) {
		r := rng.New(11)
		s, err := core.New("random", r)
		if err != nil {
			t.Fatal(err)
		}
		cfg := base
		cfg.Procs = alwaysUp(p)
		cfg.Scheduler = wrap(s)
		runner := sim.NewRunner()
		runner.EnableSlowChecks()
		res, err := runner.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var draws [8]uint64
		for i := range draws {
			draws[i] = r.Uint64()
		}
		return res, draws
	}
	probe := &stopCounter{}
	bare, bareDraws := run(func(s sim.Scheduler) sim.Scheduler { probe.Scheduler = s; return probe })
	full, fullDraws := run(func(s sim.Scheduler) sim.Scheduler { return fullRoundsOf{s} })
	if probe.budgetStops != 0 {
		t.Fatalf("%d rounds took the channel-budget stop with a replica phase pending", probe.budgetStops)
	}
	if probe.firstPicks != m {
		t.Fatalf("first round made %d original picks, want all %d", probe.firstPicks, m)
	}
	if !reflect.DeepEqual(bare, full) || bareDraws != fullDraws {
		t.Fatalf("random run differs from the full-round run:\n got  %+v\n want %+v", bare, full)
	}
}
