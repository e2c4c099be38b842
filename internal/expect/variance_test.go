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

func TestVarianceUpStepNoReclaimPath(t *testing.T) {
	// Without u->r->u detours every step is exactly one slot: variance 0.
	m := avail.MustMarkov3([3][3]float64{
		{0.9, 0.0, 0.1},
		{0.1, 0.8, 0.1},
		{0.3, 0.3, 0.4},
	})
	if v := expect.VarianceUpStep(m); v != 0 {
		t.Fatalf("variance = %v, want 0", v)
	}
	if v := oracle.VarianceSlots(m, 50); v != 0 {
		t.Fatalf("VarianceSlots = %v, want 0", v)
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(seed uint64, wRaw uint16) bool {
		m := avail.RandomMarkov3(rng.New(seed))
		w := float64(wRaw%200) + 1
		return expect.VarianceUpStep(m) >= 0 && oracle.VarianceSlots(m, w) >= 0 &&
			oracle.StdDevSlots(m, w) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceSlotsBaseCases(t *testing.T) {
	m := avail.RandomMarkov3(rng.New(7))
	if oracle.VarianceSlots(m, 1) != 0 || oracle.VarianceSlots(m, 0.5) != 0 {
		t.Fatal("W <= 1 must have zero variance")
	}
	// Linearity in W-1.
	v2 := oracle.VarianceSlots(m, 2)
	v11 := oracle.VarianceSlots(m, 11)
	if math.Abs(v11-10*v2) > 1e-9 {
		t.Fatalf("variance not linear: Var(2)=%v Var(11)=%v", v2, v11)
	}
}

func TestVarianceMatchesMonteCarlo(t *testing.T) {
	// Simulate conditioned walks and compare the empirical variance of the
	// completion time with the closed form.
	for seed := uint64(1); seed <= 3; seed++ {
		m := avail.RandomMarkov3(rng.New(seed))
		const w = 15
		analyticVar := oracle.VarianceSlots(m, w)
		r := rng.New(seed + 500)
		var sum, sq float64
		successes := 0
		for trial := 0; trial < 80000; trial++ {
			p := m.NewProcess(r, avail.Up)
			p.Next()
			up, slots, ok := 1, 1, true
			for up < w {
				slots++
				switch p.Next() {
				case avail.Up:
					up++
				case avail.Down:
					ok = false
				}
				if !ok {
					break
				}
			}
			if ok {
				sum += float64(slots)
				sq += float64(slots) * float64(slots)
				successes++
			}
		}
		if successes < 5000 {
			t.Fatalf("seed %d: too few successful walks", seed)
		}
		mean := sum / float64(successes)
		empVar := sq/float64(successes) - mean*mean
		// Variances need loose tolerances; compare with 15% relative slack
		// plus an absolute floor for tiny variances.
		if diff := math.Abs(empVar - analyticVar); diff > 0.15*analyticVar+0.05 {
			t.Fatalf("seed %d: empirical var %v vs analytic %v", seed, empVar, analyticVar)
		}
	}
}

func TestStdDevSlotsIsSqrt(t *testing.T) {
	m := avail.RandomMarkov3(rng.New(11))
	v := oracle.VarianceSlots(m, 30)
	if math.Abs(expect.NewAnalytics(m).StdDevSlots(30)-math.Sqrt(v)) > 1e-12 {
		t.Fatal("Analytics.StdDevSlots != sqrt(VarianceSlots)")
	}
}
