package volatile

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// TestScenarioOptionsValidate pins the option-validation contract: the zero
// value and the documented replication-disable switch are valid, every
// negative knob except MaxReplicas is rejected with a message naming the
// field, and the rejection surfaces through RunSweep (so a bad -p never
// reaches scenario generation).
func TestScenarioOptionsValidate(t *testing.T) {
	valid := []ScenarioOptions{
		{},
		{MaxReplicas: -1},
		{Processors: 10_000, Iterations: 3, CommScale: 2, MaxSlots: 500},
	}
	for _, opt := range valid {
		if err := opt.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", opt, err)
		}
	}

	invalid := []struct {
		opt  ScenarioOptions
		want string
	}{
		{ScenarioOptions{Processors: -1}, "Processors"},
		{ScenarioOptions{Iterations: -2}, "Iterations"},
		{ScenarioOptions{CommScale: -3}, "CommScale"},
		{ScenarioOptions{MaxSlots: -4}, "MaxSlots"},
	}
	for _, tc := range invalid {
		err := tc.opt.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want error naming %s", tc.opt, err, tc.want)
		}
	}

	// The sweep front door rejects the same options before running anything.
	cfg := Table2Config(1, 1, 1)
	cfg.Options.Processors = -5
	if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "Processors") {
		t.Fatalf("RunSweep with Processors=-5: err = %v, want validation error", err)
	}
}

// largePSweepDigests pins the SHA-256 of TestLargePConfigSweepRuns'
// formatted result per clock: the main module's only pins on the greedy
// argmin's tree at a slate of hundreds of workers (P = 500).
var largePSweepDigests = map[Mode]string{
	ModeSlot:  "682e123badce4c1f3d2e41684b1cab1329d17adf181ed47239380d89104a5770",
	ModeEvent: "cec72a9cbaa4bdc272b6b0aad2d028591e7c4b4bc1284dc737bb2575e0113924",
}

// TestLargePConfigSweepRuns exercises the volunteer-grid family end to end
// at a CI-sized platform: every instance must complete (or be censored)
// without error in both time bases, two runs of the same seed must agree
// row for row — the large-P path inherits the determinism contract — and
// each clock's result must match its pinned digest.
func TestLargePConfigSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("large-P sweep is seconds-long; skipped in -short")
	}
	const p = 500
	run := func(mode Mode) *SweepResult {
		cfg := LargePConfig(p, 1, 1, 99)
		cfg.Mode = mode
		cfg.Options.MaxSlots = 4000 // bound the tail; censored runs are fine
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("RunSweep(LargePConfig(%d)) mode %v: %v", p, mode, err)
		}
		return res
	}
	for _, mode := range []Mode{ModeSlot, ModeEvent} {
		a, b := run(mode), run(mode)
		if a.Instances == 0 {
			t.Fatalf("mode %v: no instances ran", mode)
		}
		if len(a.Overall) != len(b.Overall) {
			t.Fatalf("mode %v: reruns disagree on row count: %d vs %d", mode, len(a.Overall), len(b.Overall))
		}
		for i := range a.Overall {
			if a.Overall[i] != b.Overall[i] {
				t.Fatalf("mode %v row %d: rerun diverged: %+v vs %+v", mode, i, a.Overall[i], b.Overall[i])
			}
		}
		sum := sha256.Sum256([]byte(formatSweep(a)))
		if got := hex.EncodeToString(sum[:]); got != largePSweepDigests[mode] {
			t.Errorf("mode %v: digest drifted:\n got  %s\n want %s", mode, got, largePSweepDigests[mode])
		}
	}
}
