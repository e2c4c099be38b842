package volatile

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"
)

// goldenEventSweepDigest is the SHA-256 of the formatted output of the
// golden sweep config run in event mode, captured when the event-driven
// time base landed. Event mode consumes the per-processor availability
// streams at sojourn granularity, so its trajectories — and hence its
// digest — legitimately differ from goldenSweepDigest; what this constant
// pins is that event-mode results never drift silently afterwards.
const goldenEventSweepDigest = "a74bfdf51056b7edd8e667076d37faaaa1c600eb19af13a2c01282780defebd5"

func goldenEventSweepConfig() SweepConfig {
	cfg := goldenSweepConfig()
	cfg.Mode = ModeEvent
	return cfg
}

// TestRunSweepGoldenEvent locks the exact numeric output of the fixed-seed
// sweep in event mode, for every worker count: the event-driven engine and
// the sharded merge must stay bit-identical run over run and independent of
// parallelism, exactly like the slot-mode golden tests.
func TestRunSweepGoldenEvent(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a few seconds long")
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg := goldenEventSweepConfig()
		cfg.Workers = workers
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		text := formatSweep(res)
		sum := sha256.Sum256([]byte(text))
		if got := hex.EncodeToString(sum[:]); got != goldenEventSweepDigest {
			t.Errorf("event sweep digest drifted (workers=%d):\n got  %s\n want %s\noutput:\n%s",
				workers, got, goldenEventSweepDigest, text)
		}
	}
}

// TestCrossModeSweepEquivalence is the distribution-level cross-mode pin on
// a Table 2 style grid: slot and event mode see different availability
// trajectories for the same trial seeds (per-slot vs per-sojourn RNG
// consumption), so their aggregates must agree only statistically. At the
// pinned seed both sweeps are deterministic, so the tolerance below never
// flakes — it documents how close the two time bases land on the same
// grid, heuristic by heuristic.
func TestCrossModeSweepEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-mode sweep is a few seconds long")
	}
	slotRes, err := RunSweep(goldenSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	eventRes, err := RunSweep(goldenEventSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	if slotRes.Instances != eventRes.Instances {
		t.Fatalf("instance counts differ: slot %d, event %d", slotRes.Instances, eventRes.Instances)
	}
	slotDFB := make(map[string]float64, len(slotRes.Overall))
	for _, row := range slotRes.Overall {
		slotDFB[row.Name] = row.AvgDFB
	}
	// Calibrated against the pinned seed: at this grid's 16 instances the
	// largest per-heuristic gap between the two time bases is ~5.9 dfb
	// points (random family; the sample is small and dfb is best-relative,
	// so trajectory differences compound). The bound documents that scale
	// and catches gross divergence — the ordering check below carries the
	// structural claim.
	const tol = 8.0
	for _, row := range eventRes.Overall {
		want, ok := slotDFB[row.Name]
		if !ok {
			t.Errorf("heuristic %s only ranked in event mode", row.Name)
			continue
		}
		if diff := math.Abs(row.AvgDFB - want); diff > tol {
			t.Errorf("%s: event AvgDFB %.4f vs slot %.4f (|diff| %.4f > %.2f)",
				row.Name, row.AvgDFB, want, diff, tol)
		}
	}
	// The families must also agree on the paper's headline ordering: the
	// best contention-corrected greedy heuristic beats plain random in both
	// modes.
	rank := func(rows []TableRow) map[string]int {
		m := make(map[string]int, len(rows))
		for i, r := range rows {
			m[r.Name] = i
		}
		return m
	}
	slotRank, eventRank := rank(slotRes.Overall), rank(eventRes.Overall)
	for _, mode := range []map[string]int{slotRank, eventRank} {
		if mode["emct*"] > mode["random"] {
			t.Errorf("emct* ranked below random (slot %d/%d, event %d/%d)",
				slotRank["emct*"], slotRank["random"], eventRank["emct*"], eventRank["random"])
		}
	}
}

// TestTraceSweepCrossModeBitIdentical pins the strongest public cross-mode
// contract: trace replay consumes no availability RNG, so a trace sweep
// restricted to deterministic heuristics must produce bit-identical
// aggregates in both modes — every makespan, dfb and win equal.
func TestTraceSweepCrossModeBitIdentical(t *testing.T) {
	mk := func(mode Mode) string {
		res, err := RunSweep(SweepConfig{
			Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 10, Ncom: 5, Wmin: 2}},
			Heuristics: []string{"emct", "emct*", "mct*", "lw", "ud*"},
			Scenarios:  2,
			Trials:     2,
			Trace:      &TraceSource{Style: TraceWeibull, Len: 150},
			Options:    ScenarioOptions{Processors: 6, Iterations: 2},
			Mode:       mode,
			Seed:       2026,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances == 0 {
			t.Fatal("trace sweep aggregated no instances")
		}
		return formatSweep(res)
	}
	slot, event := mk(ModeSlot), mk(ModeEvent)
	if slot != event {
		t.Errorf("trace sweep diverged across modes:\nslot:\n%s\nevent:\n%s", slot, event)
	}
}

// TestRunTraceModeBitIdentical pins the single-run trace contract across
// the public one-shot and pooled entry points: deterministic heuristics and
// the batch disciplines on a traced scenario match bit for bit across modes
// and across Runner reuse.
func TestRunTraceModeBitIdentical(t *testing.T) {
	scn := NewScenario(7, Cell{Tasks: 6, Ncom: 3, Wmin: 2}, ScenarioOptions{Processors: 4, Iterations: 2})
	vectors := []string{
		strings.Repeat("u", 80),
		"uuuuurrrrr" + strings.Repeat("u", 60) + "dddddddddd",
		strings.Repeat("urd", 25),
		"dddddddddd" + strings.Repeat("u", 70),
	}
	traced, err := scn.Traced(vectors)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []string{"emct*", "mct", "lw*", "ud", BatchFCFS, BatchEASY} {
		slot, err := traced.Run(h, 3)
		if err != nil {
			t.Fatal(err)
		}
		event, err := traced.RunMode(h, 3, ModeEvent)
		if err != nil {
			t.Fatal(err)
		}
		if slot.Makespan != event.Makespan || slot.Stats != event.Stats {
			t.Errorf("%s: slot %+v, event %+v", h, slot, event)
		}
		rn := NewRunner()
		rn.SetMode(ModeEvent)
		pooled, err := traced.RunWith(rn, h, 3)
		if err != nil {
			t.Fatal(err)
		}
		if pooled.Makespan != event.Makespan || pooled.Stats != event.Stats {
			t.Errorf("%s: pooled event %+v, one-shot event %+v", h, pooled, event)
		}
	}
}

// TestModePublicSurface pins the re-exported mode API: parsing, the valid
// name list, and that RunMode/SetMode actually reach the engine (an event
// run on a model-driven scenario must succeed and stay reproducible).
func TestModePublicSurface(t *testing.T) {
	if got, err := ParseMode("event"); err != nil || got != ModeEvent {
		t.Fatalf("ParseMode(event) = %v, %v", got, err)
	}
	if _, err := ParseMode("bogus"); err == nil || !strings.Contains(err.Error(), "slot") {
		t.Fatalf("ParseMode(bogus) should list valid names, got %v", err)
	}
	if names := ModeNames(); len(names) != 2 || names[0] != "slot" || names[1] != "event" {
		t.Fatalf("ModeNames() = %v", names)
	}
	scn := NewScenario(11, Cell{Tasks: 5, Ncom: 5, Wmin: 1}, ScenarioOptions{Processors: 5, Iterations: 2})
	a, err := scn.RunMode("emct*", 4, ModeEvent)
	if err != nil {
		t.Fatal(err)
	}
	b, err := scn.RunMode("emct*", 4, ModeEvent)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Stats != b.Stats {
		t.Fatalf("event runs not reproducible: %+v vs %+v", a, b)
	}
	rn := NewRunner()
	rn.SetMode(ModeEvent)
	c, err := scn.RunWith(rn, "emct*", 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Makespan != a.Makespan || c.Stats != a.Stats {
		t.Fatalf("pooled event run diverged from one-shot: %+v vs %+v", c, a)
	}
}
