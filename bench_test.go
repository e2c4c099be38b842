package volatile

// Benchmark harness: one benchmark per experimental artifact of the paper.
//
//	BenchmarkTable2     — Table 2  (avg dfb + wins, all 17 heuristics)
//	BenchmarkFigure2    — Figure 2 (avg dfb vs wmin, 6 plotted heuristics)
//	BenchmarkTable3x5   — Table 3 left  (communication ×5)
//	BenchmarkTable3x10  — Table 3 right (communication ×10)
//	BenchmarkFigure1Reduction — Figure 1 / Theorem 1 (3SAT reduction pipeline)
//	BenchmarkProposition2     — MCT vs exhaustive optimum, ncom = ∞
//	BenchmarkAblation*        — design-choice ablations (replication,
//	                            correction interpretation)
//
// Benchmarks run reduced sweeps (the paper uses 247 scenarios × 10 trials
// per cell; see EXPERIMENTS.md for full-scale runs via cmd/volabench) and
// log the regenerated rows on their first iteration. Key values are also
// exposed as benchmark metrics so regressions are visible in -benchmem
// output diffs.

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/avail"
	"repro/internal/offline"
	"repro/internal/rng"
)

// benchSweepScale keeps bench iterations affordable; EXPERIMENTS.md records
// larger runs.
const (
	benchScenarios = 1
	benchTrials    = 1
)

func logRows(b *testing.B, title string, rows []TableRow) {
	b.Helper()
	b.Logf("%s", title)
	b.Logf("%-10s %-12s %s", "Algorithm", "Average dfb", "#wins")
	for _, r := range rows {
		b.Logf("%-10s %-12.2f %d", r.Name, r.AvgDFB, r.Wins)
	}
}

func dfb(rows []TableRow, name string) float64 {
	v, _ := rowValue(rows, name) // NaN for absent heuristics, never a fake 0
	return v
}

func benchTable2(b *testing.B, mode Mode) {
	for i := 0; i < b.N; i++ {
		cfg := Table2Config(benchScenarios, benchTrials, 42)
		cfg.Mode = mode
		res, err := RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, fmt.Sprintf("Table 2 (%s mode, reduced: %d instances)", mode, res.Instances), res.Overall)
			b.ReportMetric(dfb(res.Overall, "emct"), "emct_dfb")
			b.ReportMetric(dfb(res.Overall, "mct"), "mct_dfb")
			b.ReportMetric(dfb(res.Overall, "random"), "random_dfb")
		}
	}
}

func BenchmarkTable2(b *testing.B) { benchTable2(b, ModeSlot) }

// BenchmarkTable2Event regenerates the same grid on the event-driven time
// base; CI's bench-smoke records both entries side by side in
// BENCH_table2.json so the two engines' costs stay visible together.
func BenchmarkTable2Event(b *testing.B) { benchTable2(b, ModeEvent) }

// BenchmarkMoldableSweep runs the reduced Table 2 grid under the
// maximum-iters allocation policy — the moldable experiment's default, and its
// most allocation-active policy (every iteration resizes to the UP count).
// CI's bench-smoke records it in BENCH_table2.json next to the rigid-model
// entries, so the per-iteration allocation overhead and the moldable dfb
// ordering stay visible per commit.
func BenchmarkMoldableSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Table2Config(benchScenarios, benchTrials, 42)
		cfg.Alloc = "maximum-iters"
		res, err := RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, fmt.Sprintf("Moldable (maximum-iters, reduced: %d instances)", res.Instances), res.Overall)
			b.ReportMetric(dfb(res.Overall, "emct"), "emct_dfb")
			b.ReportMetric(dfb(res.Overall, "mct"), "mct_dfb")
			b.ReportMetric(dfb(res.Overall, "random"), "random_dfb")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Figure2Config(benchScenarios, benchTrials, 42)
		res, err := RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			wmins, series := Figure2Series(res, cfg.Heuristics)
			names := append([]string(nil), cfg.Heuristics...)
			sort.Strings(names)
			b.Logf("Figure 2 (reduced): avg dfb per wmin")
			header := "wmin"
			for _, h := range names {
				header += fmt.Sprintf("  %8s", h)
			}
			b.Logf("%s", header)
			for xi, w := range wmins {
				line := fmt.Sprintf("%4d", w)
				for _, h := range names {
					line += fmt.Sprintf("  %8.2f", series[h][xi])
				}
				b.Logf("%s", line)
			}
			// The figure's headline: EMCT's advantage over MCT at the
			// hard end of the axis.
			last := len(wmins) - 1
			b.ReportMetric(series["mct"][last]-series["emct"][last], "mct_minus_emct_at_wmin10")
		}
	}
}

func benchTable3(b *testing.B, scale int) {
	for i := 0; i < b.N; i++ {
		cfg := Table3Config(scale, 10, 2, 42)
		res, err := RunSweep(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, fmt.Sprintf("Table 3 ×%d (reduced: %d instances)", scale, res.Instances), res.Overall)
			b.ReportMetric(dfb(res.Overall, "mct"), "mct_dfb")
			b.ReportMetric(dfb(res.Overall, "emct*"), "emct_star_dfb")
			b.ReportMetric(dfb(res.Overall, "ud*"), "ud_star_dfb")
		}
	}
}

func BenchmarkTable3x5(b *testing.B)  { benchTable3(b, 5) }
func BenchmarkTable3x10(b *testing.B) { benchTable3(b, 10) }

// BenchmarkFigure1Reduction regenerates the Theorem 1 pipeline on the
// paper's Figure 1 formula: build the reduction, solve with DPLL, construct
// the schedule, and verify it within the horizon.
func BenchmarkFigure1Reduction(b *testing.B) {
	f := &offline.CNF{NumVars: 4, Clauses: []offline.Clause{
		{-1, 3, 4}, {1, -2, -3}, {2, 3, -4}, {1, 2, 4}, {-1, -2, -4}, {-2, 3, 4},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in, err := offline.FromCNF(f)
		if err != nil {
			b.Fatal(err)
		}
		assignment, ok := f.Solve()
		if !ok {
			b.Fatal("figure-1 formula must be satisfiable")
		}
		sched, err := offline.ScheduleFromAssignment(f, in, assignment)
		if err != nil {
			b.Fatal(err)
		}
		done, makespan, err := in.Replay(sched)
		if err != nil || done != in.M || makespan > in.N() {
			b.Fatalf("schedule invalid: done=%d makespan=%d err=%v", done, makespan, err)
		}
		if i == 0 {
			b.Logf("Figure 1: p=%d, N=%d, schedule makespan %d", in.P(), in.N(), makespan)
		}
	}
}

// BenchmarkProposition2 measures the ncom=∞ MCT schedule against the
// exhaustive-allocation optimum on random instances (they must agree).
func BenchmarkProposition2(b *testing.B) {
	r := rng.New(9)
	instances := make([]*offline.Instance, 16)
	for i := range instances {
		in := &offline.Instance{
			Tprog: 1 + r.Intn(3), Tdata: r.Intn(3),
			Ncom: offline.NoContention, M: 1 + r.Intn(4),
		}
		p := 2 + r.Intn(3)
		in.W = make([]int, p)
		for q := 0; q < p; q++ {
			in.W[q] = 1 + r.Intn(3)
			v := make(avail.Vector, 25)
			for t := range v {
				if r.Bernoulli(0.7) {
					v[t] = avail.Up
				} else {
					v[t] = avail.Reclaimed
				}
			}
			in.Vectors = append(in.Vectors, v)
		}
		instances[i] = in
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := instances[i%len(instances)]
		_, mct, err := offline.MCTNoContention(in)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := offline.OptimalNoContention(in)
		if err != nil {
			b.Fatal(err)
		}
		if mct != opt {
			b.Fatalf("Proposition 2 violated: MCT %d vs optimal %d", mct, opt)
		}
	}
}

// BenchmarkAblationReplication quantifies the replication design choice
// (Section 6.1): the same sweep with replication on vs off, on a cell with
// few tasks where stragglers dominate.
func BenchmarkAblationReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cell := Cell{Tasks: 5, Ncom: 5, Wmin: 5}
		run := func(maxReplicas int) float64 {
			var total float64
			const scenarios = 12
			for seed := uint64(0); seed < scenarios; seed++ {
				scn := NewScenario(seed, cell, ScenarioOptions{MaxReplicas: maxReplicas})
				res, err := scn.Run("emct", 1)
				if err != nil {
					b.Fatal(err)
				}
				total += float64(res.Makespan)
			}
			return total / scenarios
		}
		withRepl := run(0) // 0 = paper default (2 extra replicas)
		without := run(-1) // disabled
		if i == 0 {
			b.Logf("Ablation: replication on: avg makespan %.0f; off: %.0f (gain %.1f%%)",
				withRepl, without, 100*(without-withRepl)/withRepl)
			b.ReportMetric(without/withRepl, "makespan_ratio_off_over_on")
		}
	}
}

// BenchmarkAblationCorrectionModes compares the paper's Equation 2
// correction ("*") with the aggressive extension ("+", scaling Delay's
// communication remainders too) on the contention-prone cell.
func BenchmarkAblationCorrectionModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunSweep(SweepConfig{
			Cells:      []Cell{ContentionCell()},
			Heuristics: []string{"emct", "emct*", "emct+", "mct", "mct*", "mct+"},
			Scenarios:  10,
			Trials:     2,
			Seed:       42,
			Options:    ScenarioOptions{CommScale: 10},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			logRows(b, "Ablation: correction interpretations (comm ×10)", res.Overall)
			b.ReportMetric(dfb(res.Overall, "emct*")-dfb(res.Overall, "emct+"), "eq2_minus_aggressive")
		}
	}
}

// BenchmarkAblationSchedulingClasses compares the paper's three heuristic
// classes (Section 6.1) head to head: passive (assign once), dynamic
// (re-plan every slot; the paper's choice), and proactive (dynamic + abort
// bad commitments), all built on EMCT, with and without replication.
func BenchmarkAblationSchedulingClasses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		classes := []string{"passive-emct", "emct", "proactive-emct"}
		for _, repl := range []bool{true, false} {
			opt := ScenarioOptions{Processors: 12, Iterations: 3}
			if !repl {
				opt.MaxReplicas = -1
			}
			totals := make(map[string]int64, len(classes))
			const scenarios = 10
			for seed := uint64(0); seed < scenarios; seed++ {
				scn := NewScenario(seed, Cell{Tasks: 5, Ncom: 5, Wmin: 5}, opt)
				for _, h := range classes {
					res, err := scn.Run(h, 1)
					if err != nil {
						b.Fatal(err)
					}
					totals[h] += int64(res.Makespan)
				}
			}
			if i == 0 {
				b.Logf("classes with replication=%v: passive=%d dynamic=%d proactive=%d (total slots, %d scenarios)",
					repl, totals["passive-emct"], totals["emct"], totals["proactive-emct"], scenarios)
				if repl {
					b.ReportMetric(float64(totals["passive-emct"])/float64(totals["emct"]), "passive_over_dynamic")
					b.ReportMetric(float64(totals["proactive-emct"])/float64(totals["emct"]), "proactive_over_dynamic")
				}
			}
		}
	}
}

// BenchmarkRunSweep measures sweep-pipeline scaling across worker counts on
// a reduced grid: 2 cells × 8 scenarios × 1 trial, all 17 heuristics, i.e.
// 16 equally sized chunks for the sharded committer to reorder. Near-linear
// scaling from 1 to 4 workers is the acceptance bar for the sharded
// aggregation (no serial post-pass, no shared locks in the hot loop).
func BenchmarkRunSweep(b *testing.B) {
	cells := []Cell{{Tasks: 20, Ncom: 10, Wmin: 5}, {Tasks: 20, Ncom: 5, Wmin: 5}}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := RunSweep(SweepConfig{
					Cells:     cells,
					Scenarios: 8,
					Trials:    1,
					Seed:      42,
					Workers:   workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Instances == 0 {
					b.Fatal("empty sweep")
				}
			}
		})
	}
}

// BenchmarkSingleRunHeavy measures engine throughput on the heaviest grid
// cell (n=40, ncom=5, wmin=10).
func BenchmarkSingleRunHeavy(b *testing.B) {
	scn := NewScenario(1, Cell{Tasks: 40, Ncom: 5, Wmin: 10}, ScenarioOptions{})
	b.ReportAllocs()
	totalSlots := 0
	for i := 0; i < b.N; i++ {
		res, err := scn.Run("emct*", uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		totalSlots += res.Makespan
	}
	b.ReportMetric(float64(totalSlots)/float64(b.N), "slots/run")
}

// BenchmarkSingleRunLight measures engine throughput on a light cell.
func BenchmarkSingleRunLight(b *testing.B) {
	scn := NewScenario(1, Cell{Tasks: 5, Ncom: 20, Wmin: 1}, ScenarioOptions{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scn.Run("emct*", uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
