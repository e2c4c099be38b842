package volatile

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// goldenSweepDigest is the SHA-256 of the formatted output of goldenSweep's
// fixed-seed sweep, captured on the unoptimized engine (pre analytics
// memoization / zero-alloc rework). Hot-path changes must keep RunSweep
// bit-identical: any digest drift means a behavioural change, not a speedup.
const goldenSweepDigest = "8de096277aed7afc08505d91809b2d82434bb75476b7c4afaadebc8a99b3f51f"

func goldenSweepConfig() SweepConfig {
	return SweepConfig{
		Cells: []Cell{
			{Tasks: 5, Ncom: 5, Wmin: 1},
			{Tasks: 10, Ncom: 10, Wmin: 3},
			{Tasks: 20, Ncom: 5, Wmin: 10},
			{Tasks: 40, Ncom: 20, Wmin: 5},
		},
		Scenarios: 2,
		Trials:    2,
		Seed:      42,
	}
}

// formatSweep is SweepResult.Format, which renders every numeric field
// deterministically and at full float precision; the shim keeps the many
// golden tests that predate the method unchanged. TestFormatMatchesDigest in
// sweep_resume_test.go pins that Format and the golden digests agree.
func formatSweep(res *SweepResult) string { return res.Format() }

// TestRunSweepGolden locks the exact numeric output of a fixed-seed sweep
// across all 17 heuristics and a spread of grid cells (light, heavy,
// contention-prone). It is the regression guard for the engine and heuristic
// hot paths: optimizations must not move a single bit.
func TestRunSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a few seconds long")
	}
	res, err := RunSweep(goldenSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	text := formatSweep(res)
	sum := sha256.Sum256([]byte(text))
	if got := hex.EncodeToString(sum[:]); got != goldenSweepDigest {
		t.Errorf("sweep digest drifted:\n got  %s\n want %s\noutput:\n%s", got, goldenSweepDigest, text)
	}
}

// TestRunSweepWorkerCountDeterminism is the sharded-merge property test:
// the full SweepResult (Overall/ByWmin/ByCell rows, Instances, Censored)
// must be bit-identical for Workers ∈ {1, 2, GOMAXPROCS}, and every worker
// count must reproduce the golden digest captured on the seed's sequential
// aggregation. Shards merge in chunk order, replaying the sequential Add
// sequence exactly, so even the floating-point summation order is invariant.
func TestRunSweepWorkerCountDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("worker-count property sweep is a few seconds long")
	}
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		cfg := goldenSweepConfig()
		cfg.Workers = workers
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		text := formatSweep(res)
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != goldenSweepDigest {
			t.Errorf("workers=%d drifted from the sequential golden digest:\n got  %s\n want %s\noutput:\n%s",
				workers, got, goldenSweepDigest, text)
		}
	}
}

// TestTraceSweepWorkerCountDeterminism extends the property to the
// trace-driven pipeline: synthetic trace generation, the per-scenario
// trace-model cache and the sharded merge must all be independent of the
// worker count.
func TestTraceSweepWorkerCountDeterminism(t *testing.T) {
	mk := func(workers int) string {
		res, err := RunSweep(SweepConfig{
			Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 10, Ncom: 5, Wmin: 2}},
			Heuristics: []string{"emct", "mct*", "random2w"},
			Scenarios:  2,
			Trials:     2,
			Trace:      &TraceSource{Style: TraceWeibull, Len: 150},
			Options:    ScenarioOptions{Processors: 6, Iterations: 2},
			Seed:       2026,
			Workers:    workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances == 0 {
			t.Fatal("trace sweep aggregated no instances")
		}
		return formatSweep(res)
	}
	ref := mk(1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := mk(workers); got != ref {
			t.Errorf("trace sweep with %d workers diverged:\nworkers=1:\n%s\nworkers=%d:\n%s",
				workers, ref, workers, got)
		}
	}
}

// goldenTraceSweepDigests pin the trace-driven sweep on goldenSweep's grid
// (all 17 heuristics), one per availability source and engine time base:
// synthetic Weibull traces of the default length, and the recorded trace
// set committed under testdata/compat. They cover a full run; the compat
// corpus covers resuming from a checkpoint. Trace replay draws no
// availability randomness, so each source's two modes agree bit for bit.
var goldenTraceSweepDigests = map[string]string{
	"synthetic/slot":  "4e0ed065c6e96f09f9d71562af365edeca0863f5c32b0ab3788cb40d4eae764d",
	"synthetic/event": "4e0ed065c6e96f09f9d71562af365edeca0863f5c32b0ab3788cb40d4eae764d",
	"file/slot":       "73c88b8526ac4a56237c9849c8880d9a79748adb10a883847fa9b248c714ff27",
	"file/event":      "73c88b8526ac4a56237c9849c8880d9a79748adb10a883847fa9b248c714ff27",
}

// TestTraceSweepGolden locks the trace family's numeric output, the
// trace-driven analogue of TestRunSweepGolden.
func TestTraceSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden trace sweeps are a few seconds long")
	}
	for _, mode := range []Mode{ModeSlot, ModeEvent} {
		for _, source := range []string{"synthetic", "file"} {
			cfg := goldenSweepConfig()
			cfg.Mode = mode
			cfg.Trace = &TraceSource{Style: TraceWeibull}
			if source == "file" {
				cfg.Trace.Files = []string{compatTraceFile}
			}
			res, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			key := source + "/" + mode.String()
			if got, want := res.Digest(), goldenTraceSweepDigests[key]; got != want {
				t.Errorf("%s trace sweep digest drifted:\n got  %s\n want %s", key, got, want)
			}
		}
	}
}
