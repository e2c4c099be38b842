package volatile

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// goldenCompareDigest pins the exact numeric output of the fixed-seed DFRS
// comparison sweep below (fractional heuristics vs batch disciplines on
// identical instances). Any drift means the batch engine, the shared trial
// materialization or the sharded merge changed behaviour.
const goldenCompareDigest = "ed7e1e6882e7a3470b1249783cf61d9886139343a8cdaa57782143f04e74d3ac"

// goldenBatchDigest pins the batch-only sweep on the same grid: FCFS vs
// EASY with no fractional contenders.
const goldenBatchDigest = "854bb0b0dd0343bd1fbc760364ac95a5d87d83a9d18618ffc33912bbe259c0bf"

func goldenCompareConfig() SweepConfig {
	return SweepConfig{
		Cells: []Cell{
			{Tasks: 5, Ncom: 5, Wmin: 1},
			{Tasks: 10, Ncom: 5, Wmin: 3},
			{Tasks: 20, Ncom: 10, Wmin: 5},
		},
		Heuristics: []string{"emct*", "mct", "random2w", BatchFCFS, BatchEASY},
		Scenarios:  2,
		Trials:     2,
		Options:    ScenarioOptions{Processors: 8, Iterations: 3},
		Seed:       77,
	}
}

// TestCompareSweepGolden locks the DFRS comparison's numeric output, the
// batch-engine analogue of TestRunSweepGolden.
func TestCompareSweepGolden(t *testing.T) {
	res, err := RunSweep(goldenCompareConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := formatSweep(res)
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != goldenCompareDigest {
		t.Errorf("compare digest drifted:\n got  %s\n want %s\noutput:\n%s", got, goldenCompareDigest, text)
	}
}

// TestCompareSweepWorkerCountDeterminism extends the worker-count property
// to the comparison pipeline: fractional and batch runs of one instance
// execute on the same worker, shards merge in chunk order, so any worker
// count reproduces the golden digest bit for bit.
func TestCompareSweepWorkerCountDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg := goldenCompareConfig()
		cfg.Workers = workers
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(formatSweep(res)))
		if got := hex.EncodeToString(sum[:]); got != goldenCompareDigest {
			t.Errorf("workers=%d drifted from the golden compare digest:\n got  %s\n want %s",
				workers, got, goldenCompareDigest)
		}
	}
}

// TestBatchSweepWorkerCountDeterminism is the same property for the
// batch-only sweep, pinned by its own golden digest.
func TestBatchSweepWorkerCountDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg := goldenCompareConfig()
		cfg.Heuristics = BatchDisciplines()
		cfg.Workers = workers
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances == 0 {
			t.Fatal("batch sweep aggregated no instances")
		}
		sum := sha256.Sum256([]byte(formatSweep(res)))
		if got := hex.EncodeToString(sum[:]); got != goldenBatchDigest {
			t.Errorf("workers=%d drifted from the golden batch digest:\n got  %s\n want %s\noutput:\n%s",
				workers, got, goldenBatchDigest, formatSweep(res))
		}
	}
}

// TestCompareSweepRowsCoverBothFamilies checks the result surface: every
// configured contender appears in the overall ranking, and CompareCells
// produces one row per cell with both family winners filled in.
func TestCompareSweepRowsCoverBothFamilies(t *testing.T) {
	cfg := goldenCompareConfig()
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Heuristics
	seen := make(map[string]bool, len(res.Overall))
	for _, r := range res.Overall {
		seen[r.Name] = true
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("overall ranking is missing %q", name)
		}
	}
	rows := CompareCells(res)
	if len(rows) != len(cfg.Cells) {
		t.Fatalf("CompareCells returned %d rows for %d cells", len(rows), len(cfg.Cells))
	}
	for _, row := range rows {
		if row.BestFractional == "" || row.BestBatch == "" {
			t.Errorf("cell %s: missing family winner: %+v", row.Cell, row)
			continue
		}
		if math.IsNaN(row.FractionalDFB) || math.IsNaN(row.BatchDFB) {
			t.Errorf("cell %s: NaN dfb for a populated family: %+v", row.Cell, row)
		}
		if row.Gap != row.BatchDFB-row.FractionalDFB {
			t.Errorf("cell %s: gap %v != %v - %v", row.Cell, row.Gap, row.BatchDFB, row.FractionalDFB)
		}
	}
}

// TestCompareSweepValidation exercises the fail-fast paths.
func TestCompareSweepValidation(t *testing.T) {
	base := goldenCompareConfig()

	bad := base
	bad.Heuristics = []string{"emct*", "batch-sjf"}
	if _, err := RunSweep(bad); err == nil {
		t.Error("unknown discipline accepted")
	}
	bad.Heuristics = []string{BatchFCFS, "batch-sjf"}
	if _, err := RunSweep(bad); err == nil {
		t.Error("batch-only sweep accepted unknown discipline")
	}

	bad = base
	bad.Heuristics = []string{"no-such-heuristic", BatchEASY}
	if _, err := RunSweep(bad); err == nil {
		t.Error("unknown heuristic accepted")
	}

	bad = base
	bad.Heuristics = BatchDisciplines()
	bad.Cells = nil
	if _, err := RunSweep(bad); err == nil {
		t.Error("batch-only sweep accepted empty cells")
	}

	bad = base
	bad.Heuristics = BatchDisciplines()
	bad.Trials = 0
	if _, err := RunSweep(bad); err == nil {
		t.Error("batch-only sweep accepted zero trials")
	}

	if _, err := NewScenario(1, base.Cells[0], base.Options).Run("batch-sjf", 1); err == nil {
		t.Error("Run accepted unknown discipline")
	}
}

// TestRunBatchMatchesCompareSweepWorld pins that a single batch run
// (Scenario.Run with a discipline name) sees the same world as a batch
// contender of a sweep: same scenario seed + trial seed → same batch
// makespan as the sweep recorded.
func TestRunBatchMatchesCompareSweepWorld(t *testing.T) {
	cell := Cell{Tasks: 5, Ncom: 5, Wmin: 2}
	opt := ScenarioOptions{Processors: 6, Iterations: 2}
	seed := uint64(99)

	res, err := RunSweep(SweepConfig{
		Cells: []Cell{cell}, Heuristics: []string{"mct", BatchFCFS, BatchEASY}, Scenarios: 1, Trials: 1,
		Options: opt, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	scn := NewScenario(deriveSeed(seed, 0, 0, 0xA11CE), cell, opt)
	trialSeed := deriveSeed(seed, 0, 0, 0)
	for _, d := range BatchDisciplines() {
		direct, err := scn.Run(d, trialSeed)
		if err != nil {
			t.Fatal(err)
		}
		// The sweep's per-instance makespans are folded into dfb, so verify
		// through the overall ranking: recompute this single instance's dfb
		// from the direct runs and compare.
		if direct.Makespan <= 0 {
			t.Fatalf("%s: non-positive makespan %d", d, direct.Makespan)
		}
		mct, err := scn.Run("mct", trialSeed)
		if err != nil {
			t.Fatal(err)
		}
		best := direct.Makespan
		for _, other := range BatchDisciplines() {
			r, err := scn.Run(other, trialSeed)
			if err != nil {
				t.Fatal(err)
			}
			if r.Makespan < best {
				best = r.Makespan
			}
		}
		if mct.Makespan < best {
			best = mct.Makespan
		}
		wantDFB := 100 * float64(direct.Makespan-best) / float64(best)
		got, ok := rowValue(res.Overall, d)
		if !ok {
			t.Fatalf("%s missing from sweep ranking", d)
		}
		if got != wantDFB {
			t.Errorf("%s: sweep dfb %v != direct-run dfb %v", d, got, wantDFB)
		}
	}
}

// goldenBatchContentionDigest pins a batch-only sweep where the master link
// is the bottleneck (ncom well below the 20 processors and the task count).
// Under contention the order in which bound transfers win channels, and
// whether a dispatched job keeps its reservation while it waits for one,
// decide the makespans; goldenBatchDigest's grid rarely exercises either.
const goldenBatchContentionDigest = "1bf12a2c331aa3160e0b2e72fd41273f01ffeeb9cd294ff71a7fe01a47011bd6"

func goldenBatchContentionConfig() SweepConfig {
	return SweepConfig{
		Cells: []Cell{
			{Tasks: 20, Ncom: 1, Wmin: 1},
			{Tasks: 20, Ncom: 2, Wmin: 3},
			{Tasks: 40, Ncom: 5, Wmin: 2},
			{Tasks: 40, Ncom: 3, Wmin: 5},
		},
		Heuristics: BatchDisciplines(),
		Scenarios:  6,
		Trials:     4,
		Seed:       2011,
	}
}

// TestBatchContentionGolden locks the batch disciplines' output on
// contention-heavy cells at the default platform size.
func TestBatchContentionGolden(t *testing.T) {
	res, err := RunSweep(goldenBatchContentionConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := formatSweep(res)
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != goldenBatchContentionDigest {
		t.Errorf("batch contention digest drifted:\n got  %s\n want %s\noutput:\n%s",
			got, goldenBatchContentionDigest, text)
	}
}
