package volatile

// Cross-layer integration tests tying the on-line simulator (internal/sim,
// internal/core) to the off-line theory (internal/offline) on identical
// availability vectors.

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/offline"
	"repro/internal/rng"
)

// offlineBound computes a certified lower bound on any schedule's makespan
// for the given availability vectors: DOWN slots are split away (Section 4's
// equivalence) and the bandwidth constraint is relaxed to ncom = ∞, where
// MCT is provably optimal (Proposition 2). Returns -1 when even the relaxed
// problem cannot finish within the horizon.
func offlineBound(vectors []avail.Vector, speeds []int, tprog, tdata, m int) (int, error) {
	in, err := offline.SplitDowns(vectors, speeds, tprog, tdata, offline.NoContention, m)
	if err != nil {
		return 0, err
	}
	_, makespan, err := offline.MCTNoContention(in)
	return makespan, err
}

func TestOnlineNeverBeatsOfflineBound(t *testing.T) {
	// For any heuristic and any availability realization, the on-line
	// makespan must be >= the relaxed off-line optimum on the same vectors.
	// This exercises simulator timing, bandwidth accounting, replication and
	// crash handling against an independently implemented reference.
	const horizon = 30000
	heuristics := []string{"mct", "emct*", "ud", "random", "passive-emct"}
	master := rng.New(2024)
	checked := 0
	for trial := 0; trial < 12; trial++ {
		scn := NewScenario(master.Uint64(),
			Cell{Tasks: 4 + int(master.Uint64()%5), Ncom: 2 + int(master.Uint64()%3), Wmin: 1 + int(master.Uint64()%3)},
			ScenarioOptions{Processors: 6, Iterations: 1})
		prm := scn.Params()

		// One shared availability realization per trial.
		vecRng := rng.New(master.Uint64())
		vectors := make([]avail.Vector, scn.Processors())
		specs := make([]string, scn.Processors())
		speeds := make([]int, scn.Processors())
		for i, proc := range scn.inner.Platform.Processors {
			stream := vecRng.Split()
			vectors[i] = avail.Record(proc.Avail.NewProcess(stream, avail.Up), horizon)
			specs[i] = vectors[i].String()
			speeds[i] = proc.W
		}
		bound, err := offlineBound(vectors, speeds, prm.Tprog, prm.Tdata, prm.M)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := scn.Traced(specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range heuristics {
			res, err := traced.Run(h, uint64(trial))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				continue // censored; nothing to compare
			}
			if bound < 0 {
				t.Fatalf("trial %d: online %s completed in %d but relaxed offline bound says impossible",
					trial, h, res.Makespan)
			}
			if res.Makespan < bound {
				t.Fatalf("trial %d: %s finished in %d slots, below the offline bound %d",
					trial, h, res.Makespan, bound)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("only %d comparisons executed; scenario generation too hostile", checked)
	}
}

func TestPassiveClassIsDominatedByDynamic(t *testing.T) {
	// Section 6.1 argues the passive class (assign once, wait out RECLAIMED
	// periods, re-assign only on crashes) is strictly weaker than dynamic
	// re-planning. Quantify it: across instances, dynamic EMCT must win on
	// average by a clear margin.
	var dynTotal, pasTotal int64
	instances := 0
	for seed := uint64(0); seed < 15; seed++ {
		scn := NewScenario(seed, Cell{Tasks: 10, Ncom: 5, Wmin: 3},
			ScenarioOptions{Processors: 10, Iterations: 3})
		dyn, err := scn.Run("emct", 1)
		if err != nil {
			t.Fatal(err)
		}
		pas, err := scn.Run("passive-emct", 1)
		if err != nil {
			t.Fatal(err)
		}
		if !dyn.Completed || !pas.Completed {
			continue
		}
		dynTotal += int64(dyn.Makespan)
		pasTotal += int64(pas.Makespan)
		instances++
	}
	if instances < 10 {
		t.Fatalf("too few completed instances (%d)", instances)
	}
	if pasTotal <= dynTotal {
		t.Fatalf("passive (%d total slots) did not lose to dynamic (%d) over %d instances",
			pasTotal, dynTotal, instances)
	}
	t.Logf("dynamic emct: %d slots total; passive-emct: %d (%.1f%% worse) over %d instances",
		dynTotal, pasTotal, 100*float64(pasTotal-dynTotal)/float64(dynTotal), instances)
}

func TestPassiveSchedulerCompletes(t *testing.T) {
	// Passive heuristics decline picks while committed processors are
	// RECLAIMED; the engine must still drive every run to completion.
	for _, h := range []string{"passive-mct", "passive-emct", "passive-ud", "passive-random"} {
		scn := NewScenario(3, Cell{Tasks: 6, Ncom: 3, Wmin: 2},
			ScenarioOptions{Processors: 8, Iterations: 2})
		res, err := scn.Run(h, 5)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if !res.Completed {
			t.Fatalf("%s censored at %d slots", h, res.Makespan)
		}
		if res.Stats.TasksCompleted != 12 {
			t.Fatalf("%s completed %d tasks, want 12", h, res.Stats.TasksCompleted)
		}
	}
}

func TestProactiveClassCompletesAndCancels(t *testing.T) {
	// The proactive variants must finish every run; on straggler-heavy
	// scenarios (small m, very heterogeneous speeds) they should actually
	// exercise cancellation.
	cancelledSeen := false
	for seed := uint64(0); seed < 10; seed++ {
		scn := NewScenario(seed, Cell{Tasks: 3, Ncom: 5, Wmin: 8},
			ScenarioOptions{Processors: 12, Iterations: 2, MaxReplicas: -1})
		res, err := scn.RunWithHooks("proactive-emct", 1, nil, func(ev Event) {
			if ev.Kind.String() == "copy-cancelled" {
				cancelledSeen = true
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: censored at %d", seed, res.Makespan)
		}
		if res.Stats.TasksCompleted != 6 {
			t.Fatalf("seed %d: %d tasks", seed, res.Stats.TasksCompleted)
		}
	}
	if !cancelledSeen {
		t.Fatal("proactive scheduler never cancelled anything on straggler scenarios")
	}
}

func TestProactiveVsDynamicOnStragglers(t *testing.T) {
	// The paper argues proactive cancellation could help when m is small and
	// replication is unavailable. Measure it (informational; proactive must
	// at least not be catastrophically worse).
	var dyn, pro int64
	for seed := uint64(0); seed < 20; seed++ {
		scn := NewScenario(seed, Cell{Tasks: 3, Ncom: 5, Wmin: 8},
			ScenarioOptions{Processors: 12, Iterations: 2, MaxReplicas: -1})
		a, err := scn.Run("emct", 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := scn.Run("proactive-emct", 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Completed && b.Completed {
			dyn += int64(a.Makespan)
			pro += int64(b.Makespan)
		}
	}
	t.Logf("no-replication stragglers: dynamic emct %d slots vs proactive-emct %d (%+.1f%%)",
		dyn, pro, 100*float64(pro-dyn)/float64(dyn))
	if pro > dyn*3/2 {
		t.Fatalf("proactive catastrophically worse: %d vs %d", pro, dyn)
	}
}

func TestAggressiveCorrectionVariantsComplete(t *testing.T) {
	for _, h := range []string{"mct+", "emct+", "lw+", "ud+"} {
		scn := NewScenario(4, ContentionCell(), ScenarioOptions{Iterations: 2, CommScale: 5})
		res, err := scn.Run(h, 5)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if !res.Completed {
			t.Fatalf("%s censored", h)
		}
	}
}

func TestExtensionHeuristicsCompleteAndCompete(t *testing.T) {
	// The analytics-driven extensions (risk-averse remct, deadline
	// probability) must complete runs and stay in the same performance
	// league as EMCT on a mid-grid cell.
	var emctTotal, remctTotal, dlTotal int64
	for seed := uint64(0); seed < 8; seed++ {
		scn := NewScenario(seed, Cell{Tasks: 8, Ncom: 5, Wmin: 4},
			ScenarioOptions{Processors: 10, Iterations: 3})
		for _, h := range []string{"emct", "remct", "deadline"} {
			res, err := scn.Run(h, 1)
			if err != nil {
				t.Fatalf("%s: %v", h, err)
			}
			if !res.Completed {
				t.Fatalf("%s censored on seed %d", h, seed)
			}
			switch h {
			case "emct":
				emctTotal += int64(res.Makespan)
			case "remct":
				remctTotal += int64(res.Makespan)
			case "deadline":
				dlTotal += int64(res.Makespan)
			}
		}
	}
	t.Logf("extension shoot-out (total slots over 8 instances): emct=%d remct=%d deadline=%d",
		emctTotal, remctTotal, dlTotal)
	// League check: within 50% of EMCT.
	for name, total := range map[string]int64{"remct": remctTotal, "deadline": dlTotal} {
		if total > emctTotal*3/2 {
			t.Fatalf("%s far off the pace: %d vs emct %d", name, total, emctTotal)
		}
	}
}
