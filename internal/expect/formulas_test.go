package expect_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/avail"
	"repro/internal/expect"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// paperModel builds a representative chain drawn with the paper's rule.
func paperModel(seed uint64) *avail.Markov3 {
	return avail.RandomMarkov3(rng.New(seed))
}

func TestPPlusHandComputed(t *testing.T) {
	// P+ = Puu + Pur*Pru/(1-Prr) with Puu=0.9, Pur=0.06, Pru=0.05, Prr=0.9.
	m := avail.MustMarkov3([3][3]float64{
		{0.90, 0.06, 0.04},
		{0.05, 0.90, 0.05},
		{0.10, 0.10, 0.80},
	})
	want := 0.90 + 0.06*0.05/(1-0.90)
	if got := expect.PPlus(m); math.Abs(got-want) > 1e-12 {
		t.Fatalf("PPlus = %v, want %v", got, want)
	}
}

func TestPPlusNoReclaimedPath(t *testing.T) {
	// If the processor can never leave RECLAIMED to UP, P+ = Puu.
	m := avail.MustMarkov3([3][3]float64{
		{0.8, 0.1, 0.1},
		{0.0, 0.7, 0.3},
		{0.2, 0.2, 0.6},
	})
	if got := expect.PPlus(m); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("PPlus = %v, want 0.8", got)
	}
}

func TestPPlusInUnitInterval(t *testing.T) {
	f := func(seed uint64) bool {
		p := expect.PPlus(paperModel(seed))
		return p > 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPPlusMatchesMonteCarlo(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		m := paperModel(seed)
		analytic := expect.PPlus(m)
		estimated := oracle.EstimatePPlus(m, rng.New(seed+100), 200000)
		if math.Abs(analytic-estimated) > 0.005 {
			t.Fatalf("seed %d: PPlus analytic %v vs MC %v", seed, analytic, estimated)
		}
	}
}

func TestExpectedSlotsBaseCases(t *testing.T) {
	m := paperModel(1)
	if got := expect.ExpectedSlots(m, 1); got != 1 {
		t.Fatalf("E(1) = %v, want 1", got)
	}
	if got := expect.ExpectedSlots(m, 0); got != 0 {
		t.Fatalf("E(0) = %v, want 0", got)
	}
	if got := expect.ExpectedSlots(m, 0.5); got != 0.5 {
		t.Fatalf("E(0.5) = %v, want 0.5", got)
	}
}

func TestExpectedSlotsClosedFormMatchesTheoremExpression(t *testing.T) {
	// The implementation uses E(W) = 1 + (W-1)E(up); Theorem 2 states
	// E(W) = W + (W-1) * (Pur*Pru/(1-Prr)) / (Puu(1-Prr)+Pur*Pru).
	// Both must agree.
	for seed := uint64(1); seed <= 50; seed++ {
		m := paperModel(seed)
		puu := m.P(avail.Up, avail.Up)
		pur := m.P(avail.Up, avail.Reclaimed)
		pru := m.P(avail.Reclaimed, avail.Up)
		prr := m.P(avail.Reclaimed, avail.Reclaimed)
		for _, w := range []float64{2, 3, 10, 57.5} {
			direct := w + (w-1)*(pur*pru/(1-prr))/(puu*(1-prr)+pur*pru)
			if got := expect.ExpectedSlots(m, w); math.Abs(got-direct) > 1e-9 {
				t.Fatalf("seed %d W=%v: impl %v vs theorem %v", seed, w, got, direct)
			}
		}
	}
}

func TestExpectedSlotsAtLeastW(t *testing.T) {
	f := func(seed uint64, wRaw uint16) bool {
		w := float64(wRaw%500) + 1
		m := paperModel(seed)
		e := expect.ExpectedSlots(m, w)
		return e >= w-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedSlotsMonotoneInW(t *testing.T) {
	f := func(seed uint64, wRaw uint16) bool {
		w := float64(wRaw%500) + 1
		m := paperModel(seed)
		return expect.ExpectedSlots(m, w+1) >= expect.ExpectedSlots(m, w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedSlotsLinearInW(t *testing.T) {
	// E(W) = 1 + (W-1)E(up) is affine in W: second differences vanish.
	m := paperModel(3)
	d1 := expect.ExpectedSlots(m, 3) - expect.ExpectedSlots(m, 2)
	d2 := expect.ExpectedSlots(m, 11) - expect.ExpectedSlots(m, 10)
	if math.Abs(d1-d2) > 1e-9 {
		t.Fatalf("E(W) not affine: slopes %v vs %v", d1, d2)
	}
}

func TestExpectedSlotsMatchesMonteCarlo(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		m := paperModel(seed)
		for _, w := range []int{2, 5, 20} {
			analytic := expect.ExpectedSlots(m, float64(w))
			mc, successes := oracle.EstimateExpectedSlots(m, w, rng.New(seed*13+7), 60000)
			if successes < 1000 {
				t.Fatalf("seed %d W=%d: too few successful walks (%d)", seed, w, successes)
			}
			if math.Abs(analytic-mc)/analytic > 0.03 {
				t.Fatalf("seed %d W=%d: analytic %v vs MC %v", seed, w, analytic, mc)
			}
		}
	}
}

func TestExpectedUpStepNoReclaimed(t *testing.T) {
	// Without a RECLAIMED detour every conditioned step is one slot.
	m := avail.MustMarkov3([3][3]float64{
		{0.9, 0.0, 0.1},
		{0.1, 0.8, 0.1},
		{0.3, 0.3, 0.4},
	})
	if got := expect.ExpectedUpStep(m); math.Abs(got-1) > 1e-12 {
		t.Fatalf("E(up) = %v, want 1", got)
	}
}

func TestSurvivalUDExactSmallCases(t *testing.T) {
	m := avail.MustMarkov3([3][3]float64{
		{0.90, 0.06, 0.04},
		{0.05, 0.90, 0.05},
		{0.10, 0.10, 0.80},
	})
	if got := oracle.SurvivalUD(m, 1); got != 1 {
		t.Fatalf("P_UD(1) = %v, want 1", got)
	}
	// k=2: survive one transition from u: 1 - Pud = 0.96.
	if got := oracle.SurvivalUD(m, 2); math.Abs(got-0.96) > 1e-12 {
		t.Fatalf("P_UD(2) = %v, want 0.96", got)
	}
	// k=3 by hand: survive two transitions from u within {u,r}:
	// y1 = (Puu+Pur, Pru+Prr) = (0.96, 0.95);
	// y2_u = 0.90*0.96 + 0.06*0.95 = 0.921.
	if got := oracle.SurvivalUD(m, 3); math.Abs(got-0.921) > 1e-12 {
		t.Fatalf("P_UD(3) = %v, want 0.921", got)
	}
}

func TestSurvivalUDMatchesMonteCarlo(t *testing.T) {
	m := paperModel(5)
	for _, k := range []int{2, 5, 15, 40} {
		analytic := oracle.SurvivalUD(m, k)
		mc := oracle.EstimateSurvivalUD(m, k, rng.New(uint64(k)*3+1), 150000)
		if math.Abs(analytic-mc) > 0.006 {
			t.Fatalf("k=%d: exact %v vs MC %v", k, analytic, mc)
		}
	}
}

func TestSurvivalUDMonotoneDecreasing(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%60) + 1
		m := paperModel(seed)
		return oracle.SurvivalUD(m, k+1) <= oracle.SurvivalUD(m, k)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSurvivalUDFracInterpolates(t *testing.T) {
	m := paperModel(6)
	for _, k := range []int{2, 7, 30} {
		exact := oracle.SurvivalUD(m, k)
		frac := oracle.SurvivalUDFrac(m, float64(k))
		if math.Abs(exact-frac) > 1e-12 {
			t.Fatalf("k=%d: frac at integer %v vs exact %v", k, frac, exact)
		}
		mid := oracle.SurvivalUDFrac(m, float64(k)+0.5)
		lo, hi := oracle.SurvivalUD(m, k+1), oracle.SurvivalUD(m, k)
		if mid < lo-1e-12 || mid > hi+1e-12 {
			t.Fatalf("k=%v: interpolated %v outside [%v, %v]", float64(k)+0.5, mid, lo, hi)
		}
	}
	if got := oracle.SurvivalUDFrac(m, 0.3); got != 1 {
		t.Fatalf("SurvivalUDFrac(0.3) = %v, want 1", got)
	}
}

func TestSurvivalUDApproxCloseToExact(t *testing.T) {
	// The paper's approximation replaces the conditioned occupancy of
	// {UP, RECLAIMED} with stationary weights, which drifts from the exact
	// value when the per-state death rates differ (it is a deliberate
	// simplification, Section 6.3.3). We check it stays in the right
	// ballpark and is exact at k=2.
	for seed := uint64(1); seed <= 20; seed++ {
		m := paperModel(seed)
		exact2 := oracle.SurvivalUD(m, 2)
		approx2 := oracle.SurvivalUDApprox(m, 2)
		if math.Abs(exact2-approx2) > 1e-12 {
			t.Fatalf("seed %d: k=2 approx %v differs from exact %v", seed, approx2, exact2)
		}
		for _, k := range []int{5, 10, 25} {
			exact := oracle.SurvivalUD(m, k)
			approx := oracle.SurvivalUDApprox(m, float64(k))
			if math.Abs(exact-approx) > 0.25 {
				t.Fatalf("seed %d k=%d: exact %v vs approx %v", seed, k, exact, approx)
			}
			if approx <= 0 || approx > 1 {
				t.Fatalf("seed %d k=%d: approx %v out of (0,1]", seed, k, approx)
			}
		}
	}
}

func TestSurvivalUDApproxInUnitInterval(t *testing.T) {
	f := func(seed uint64, kRaw uint16) bool {
		k := float64(kRaw%1000) + 1
		p := oracle.SurvivalUDApprox(paperModel(seed), k)
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExpectedSlots(b *testing.B) {
	m := paperModel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = expect.ExpectedSlots(m, 37)
	}
}
