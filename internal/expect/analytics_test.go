package expect_test

import (
	"math"
	"testing"

	"repro/internal/expect"
	"repro/internal/oracle"
)

// TestAnalyticsMatchesFormulas checks the cached quantities the heuristics
// score with against the free functions, the oracle's standard deviation
// and the paper's UD approximation: E(W) and the standard deviation bit for
// bit, −ln P_UD(k) to rounding.
func TestAnalyticsMatchesFormulas(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		m := paperModel(seed)
		a := expect.NewAnalytics(m)
		if a.PPlus != expect.PPlus(m) || a.UpStep != expect.ExpectedUpStep(m) {
			t.Fatalf("seed %d: cached P+ or E(up) differs from the formula", seed)
		}
		for _, w := range []float64{0.5, 1, 2, 7.5, 40} {
			if got, want := a.ExpectedSlots(w), expect.ExpectedSlots(m, w); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d W=%v: ExpectedSlots %v, formula %v", seed, w, got, want)
			}
			if got, want := a.StdDevSlots(w), oracle.StdDevSlots(m, w); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d W=%v: StdDevSlots %v, formula %v", seed, w, got, want)
			}
		}
		for _, k := range []float64{0.5, 1, 2, 3.5, 25, 300} {
			got, want := a.UDScore(k), -math.Log(oracle.SurvivalUDApprox(m, k))
			if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("seed %d k=%v: UDScore %v, -ln SurvivalUDApprox %v", seed, k, got, want)
			}
		}
	}
}
