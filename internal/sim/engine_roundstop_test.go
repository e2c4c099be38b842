package sim_test

import (
	"testing"

	"repro/internal/sim"
)

// stopCounter forwards a PickSkipper heuristic unchanged (PoolSafe and
// Cancel are not needed by the heuristics below) and counts the rounds the
// engine ended early and the picks they skipped.
type stopCounter struct {
	sim.Scheduler
	stops, skipped int
}

func (c *stopCounter) SkipPicks(v *sim.View, eligible []int, rs *sim.RoundState, n int) {
	c.stops++
	c.skipped += n
	c.Scheduler.(sim.PickSkipper).SkipPicks(v, eligible, rs, n)
}

// TestRoundStopSlowCheckHolds runs slow-checked random scenarios with
// heuristics that end rounds early: every early stop is verified against a
// full scan of the slate (no free, unpicked worker left) and a walk of the
// pending originals (the skipped count). The scenarios must actually stop
// rounds early, or the check proves nothing.
func TestRoundStopSlowCheckHolds(t *testing.T) {
	runner := sim.NewRunner()
	runner.EnableSlowChecks()
	for _, name := range []string{"emct", "mct*", "ud", "random", "random2w", "deadline"} {
		stops, skipped := 0, 0
		for seed := uint64(0); seed < 40; seed++ {
			cfg := randomScenarioConfig(t, seed, name)
			ctr := &stopCounter{Scheduler: cfg.Scheduler}
			cfg.Scheduler = ctr
			if _, err := runner.Run(cfg); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			stops += ctr.stops
			skipped += ctr.skipped
		}
		if stops == 0 || skipped == 0 {
			t.Fatalf("%s: no round stopped early (%d stops, %d picks skipped)", name, stops, skipped)
		}
		t.Logf("%s: %d early stops, %d picks skipped", name, stops, skipped)
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
