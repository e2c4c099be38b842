package volatile

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestScenarioRunDeterministic(t *testing.T) {
	scn := NewScenario(1, Cell{Tasks: 5, Ncom: 5, Wmin: 1}, ScenarioOptions{Iterations: 2})
	a, err := scn.Run("emct", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scn.Run("emct", 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Fatalf("same trial seed gave %d and %d", a.Makespan, b.Makespan)
	}
	c, err := scn.Run("emct", 8)
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may legitimately coincide; just ensure it runs
}

func TestScenarioRunUnknownHeuristic(t *testing.T) {
	scn := NewScenario(1, Cell{Tasks: 2, Ncom: 2, Wmin: 1}, ScenarioOptions{})
	if _, err := scn.Run("nope", 1); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestScenarioDescribe(t *testing.T) {
	scn := NewScenario(3, Cell{Tasks: 5, Ncom: 5, Wmin: 2}, ScenarioOptions{Processors: 4})
	d := scn.Describe()
	if !strings.Contains(d, "4 processors") || !strings.Contains(d, "Tprog=10") {
		t.Fatalf("describe output:\n%s", d)
	}
	if scn.Processors() != 4 {
		t.Fatalf("Processors() = %d", scn.Processors())
	}
	if scn.Params().Tdata != 2 {
		t.Fatalf("Params().Tdata = %d", scn.Params().Tdata)
	}
}

func TestAllHeuristicsCompleteSmallScenario(t *testing.T) {
	scn := NewScenario(5, Cell{Tasks: 5, Ncom: 5, Wmin: 1}, ScenarioOptions{Iterations: 2})
	for _, h := range Heuristics() {
		res, err := scn.Run(h, 11)
		if err != nil {
			t.Fatalf("%s: %v", h, err)
		}
		if !res.Completed {
			t.Fatalf("%s censored at %d", h, res.Makespan)
		}
		if res.Stats.TasksCompleted != 10 {
			t.Fatalf("%s completed %d tasks, want 10", h, res.Stats.TasksCompleted)
		}
	}
}

func TestReplicationToggle(t *testing.T) {
	cell := Cell{Tasks: 2, Ncom: 5, Wmin: 1}
	on := NewScenario(9, cell, ScenarioOptions{Iterations: 1})
	off := NewScenario(9, cell, ScenarioOptions{Iterations: 1, MaxReplicas: -1})
	if on.Params().MaxReplicas != 2 {
		t.Fatalf("default MaxReplicas = %d, want 2", on.Params().MaxReplicas)
	}
	if off.Params().MaxReplicas != 0 {
		t.Fatalf("disabled MaxReplicas = %d, want 0", off.Params().MaxReplicas)
	}
	res, err := off.Run("mct", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ReplicasStarted != 0 {
		t.Fatalf("replication disabled but %d replicas started", res.Stats.ReplicasStarted)
	}
}

func TestRunWithHooks(t *testing.T) {
	scn := NewScenario(13, Cell{Tasks: 3, Ncom: 3, Wmin: 1}, ScenarioOptions{Iterations: 1})
	slots, events := 0, 0
	res, err := scn.RunWithHooks("mct", 2,
		func(sr *SlotReport) { slots++ },
		func(ev Event) { events++ })
	if err != nil {
		t.Fatal(err)
	}
	if slots != res.Makespan {
		t.Fatalf("observer saw %d slots, makespan %d", slots, res.Makespan)
	}
	if events == 0 {
		t.Fatal("no events emitted")
	}
}

func TestRunTrace(t *testing.T) {
	scn := NewScenario(17, Cell{Tasks: 2, Ncom: 2, Wmin: 1}, ScenarioOptions{Processors: 2, Iterations: 1})
	long := strings.Repeat("u", 200)
	traced, err := scn.Traced([]string{long, long})
	if err != nil {
		t.Fatal(err)
	}
	res, err := traced.Run("emct", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("always-up trace censored")
	}
	// Vector count mismatch.
	if _, err := scn.Traced([]string{long}); err == nil {
		t.Fatal("vector count mismatch accepted")
	}
	// Bad letters.
	if _, err := scn.Traced([]string{long, "ux"}); err == nil {
		t.Fatal("bad vector accepted")
	}
	// Too short to fit a model.
	if _, err := scn.Traced([]string{long, "u"}); err == nil {
		t.Fatal("one-slot vector accepted")
	}
}

func TestPaperGridPublic(t *testing.T) {
	if len(PaperGrid()) != 120 {
		t.Fatalf("PaperGrid has %d cells", len(PaperGrid()))
	}
	if ContentionCell().Tasks != 20 || ContentionCell().Ncom != 5 || ContentionCell().Wmin != 1 {
		t.Fatalf("ContentionCell = %v", ContentionCell())
	}
	if len(Heuristics()) != 17 || len(GreedyHeuristics()) != 8 {
		t.Fatal("heuristic lists wrong")
	}
}

func TestRunSweepSmall(t *testing.T) {
	cfg := SweepConfig{
		Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 5, Ncom: 5, Wmin: 2}},
		Heuristics: []string{"mct", "emct", "random"},
		Scenarios:  2,
		Trials:     2,
		Seed:       101,
		Options:    ScenarioOptions{Iterations: 2, Processors: 8},
	}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instances != 8 {
		t.Fatalf("Instances = %d, want 8", res.Instances)
	}
	if len(res.Overall) != 3 {
		t.Fatalf("Overall rows = %v", res.Overall)
	}
	if len(res.ByWmin) != 2 {
		t.Fatalf("ByWmin has %d entries", len(res.ByWmin))
	}
	if len(res.ByCell) != 2 {
		t.Fatalf("ByCell has %d entries", len(res.ByCell))
	}
	// Best row must have dfb 0 <= next rows, and wins must total >= instances.
	if res.Overall[0].AvgDFB > res.Overall[1].AvgDFB {
		t.Fatal("rows not sorted by dfb")
	}
	wins := 0
	for _, r := range res.Overall {
		wins += r.Wins
	}
	if wins < res.Instances {
		t.Fatalf("total wins %d < instances %d", wins, res.Instances)
	}
}

func TestRunSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	mk := func(workers int) *SweepResult {
		res, err := RunSweep(SweepConfig{
			Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}},
			Heuristics: []string{"emct", "random2w"},
			Scenarios:  2,
			Trials:     2,
			Seed:       55,
			Workers:    workers,
			Options:    ScenarioOptions{Iterations: 2, Processors: 6},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(1), mk(8)
	for i := range a.Overall {
		if a.Overall[i] != b.Overall[i] {
			t.Fatalf("worker count changed results: %+v vs %+v", a.Overall[i], b.Overall[i])
		}
	}
}

func TestRunSweepValidation(t *testing.T) {
	if _, err := RunSweep(SweepConfig{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	if _, err := RunSweep(SweepConfig{Cells: []Cell{{Tasks: 1, Ncom: 1, Wmin: 1}}}); err == nil {
		t.Fatal("zero scenarios accepted")
	}
	if _, err := RunSweep(SweepConfig{
		Cells: []Cell{{Tasks: 1, Ncom: 1, Wmin: 1}}, Scenarios: 1, Trials: 1,
		Heuristics: []string{"bogus"},
	}); err == nil {
		t.Fatal("bogus heuristic accepted")
	}
}

func TestConfigBuilders(t *testing.T) {
	t2 := Table2Config(3, 4, 9)
	if len(t2.Cells) != 120 || t2.Scenarios != 3 || t2.Trials != 4 {
		t.Fatalf("Table2Config = %+v", t2)
	}
	f2 := Figure2Config(1, 1, 9)
	if len(f2.Heuristics) != 6 {
		t.Fatalf("Figure2Config heuristics = %v", f2.Heuristics)
	}
	t3 := Table3Config(5, 2, 2, 9)
	if t3.Options.CommScale != 5 || len(t3.Cells) != 1 || len(t3.Heuristics) != 8 {
		t.Fatalf("Table3Config = %+v", t3)
	}
}

func TestFigure2Series(t *testing.T) {
	res, err := RunSweep(SweepConfig{
		Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 5, Ncom: 5, Wmin: 3}},
		Heuristics: []string{"mct", "emct"},
		Scenarios:  1,
		Trials:     2,
		Seed:       77,
		Options:    ScenarioOptions{Iterations: 2, Processors: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	wmins, series := Figure2Series(res, []string{"mct", "emct"})
	if len(wmins) != 2 || wmins[0] != 1 || wmins[1] != 3 {
		t.Fatalf("wmins = %v", wmins)
	}
	if len(series["mct"]) != 2 || len(series["emct"]) != 2 {
		t.Fatalf("series = %v", series)
	}
}

func TestProgressCallback(t *testing.T) {
	// Progress may be invoked concurrently and out of order; the contract is
	// that the done counter covers 1..total, with total always the instance
	// count.
	var mu sync.Mutex
	maxDone, total, calls := 0, 0, 0
	_, err := RunSweep(SweepConfig{
		Cells:      []Cell{{Tasks: 3, Ncom: 3, Wmin: 1}},
		Heuristics: []string{"mct"},
		Scenarios:  2,
		Trials:     3,
		Seed:       5,
		Workers:    2,
		Options:    ScenarioOptions{Iterations: 1, Processors: 4},
		Progress: func(d, tot int) {
			mu.Lock()
			defer mu.Unlock()
			calls++
			total = tot
			if d > maxDone {
				maxDone = d
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxDone != 6 || total != 6 || calls != 6 {
		t.Fatalf("progress reached %d/%d over %d calls, want 6/6 over 6", maxDone, total, calls)
	}
}

// TestProgressCountsEachInstanceOnce pins the lock-free progress counter:
// across many workers, the done values delivered to Progress must be exactly
// the multiset {1, ..., total} — `done` reaches total exactly once, no value
// is skipped, and no value is delivered twice.
func TestProgressCountsEachInstanceOnce(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	const wantTotal = 4 * 3 * 2 // cells × scenarios × trials
	_, err := RunSweep(SweepConfig{
		Cells: []Cell{
			{Tasks: 2, Ncom: 2, Wmin: 1}, {Tasks: 3, Ncom: 2, Wmin: 1},
			{Tasks: 2, Ncom: 3, Wmin: 2}, {Tasks: 3, Ncom: 3, Wmin: 2},
		},
		Heuristics: []string{"mct", "emct"},
		Scenarios:  3,
		Trials:     2,
		Seed:       31,
		Workers:    4,
		Options:    ScenarioOptions{Iterations: 1, Processors: 4},
		Progress: func(d, tot int) {
			if tot != wantTotal {
				t.Errorf("total = %d, want %d", tot, wantTotal)
			}
			mu.Lock()
			seen = append(seen, d)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != wantTotal {
		t.Fatalf("progress called %d times, want %d", len(seen), wantTotal)
	}
	sort.Ints(seen)
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("done values %v are not exactly 1..%d", seen, wantTotal)
		}
	}
}

// TestRunSweepUnknownHeuristicFailsFast pins the registry-based validation:
// a sweep naming an unknown heuristic must fail before any instance runs —
// even alongside valid names and with an enormous configured sweep — and
// the error must identify the bad name.
func TestRunSweepUnknownHeuristicFailsFast(t *testing.T) {
	calls := 0
	_, err := RunSweep(SweepConfig{
		Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}},
		Heuristics: []string{"emct", "no-such-heuristic", "mct"},
		Scenarios:  1 << 30, // would take forever if anything actually ran
		Trials:     1 << 30,
		Seed:       1,
		Progress:   func(d, tot int) { calls++ },
	})
	if err == nil {
		t.Fatal("unknown heuristic accepted")
	}
	if !strings.Contains(err.Error(), "no-such-heuristic") {
		t.Fatalf("error %q does not name the unknown heuristic", err)
	}
	if calls != 0 {
		t.Fatalf("validation ran %d instances before failing", calls)
	}
	// Trace sweeps share the validation path.
	if _, err := RunSweep(SweepConfig{
		Cells:      []Cell{{Tasks: 2, Ncom: 2, Wmin: 1}},
		Heuristics: []string{"nope"},
		Scenarios:  1,
		Trials:     1,
		Trace:      &TraceSource{},
	}); err == nil {
		t.Fatal("trace sweep accepted an unknown heuristic")
	}
}

// TestTracedConcurrentUse traces one scenario from many goroutines at
// once (the sweep-worker sharing pattern): all callers must agree on the
// result, and the race detector must stay quiet over the shared scenario,
// the fitted models and their interned analytics.
func TestTracedConcurrentUse(t *testing.T) {
	scn := NewScenario(23, Cell{Tasks: 3, Ncom: 3, Wmin: 1}, ScenarioOptions{Processors: 4, Iterations: 1})
	long := strings.Repeat("uurduuruuud", 10) + "u"
	sets := [][]string{
		{long, long, long, long},
		{long + "u", long, long, long},
		{long, long + "r" + "u", long, long},
	}
	const goroutines = 8
	results := make([][]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rn := NewRunner()
			for i, specs := range sets {
				traced, err := scn.Traced(specs)
				if err != nil {
					t.Error(err)
					return
				}
				res, err := traced.RunWith(rn, "emct", uint64(i))
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], res.Makespan)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d set %d: makespan %d, want %d", g, i, results[g][i], results[0][i])
			}
		}
	}
}
