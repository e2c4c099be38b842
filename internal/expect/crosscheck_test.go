package expect_test

import (
	"math"
	"testing"

	"repro/internal/avail"
	"repro/internal/expect"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// TestPPlusViaAbsorption derives Lemma 1 by pure linear algebra and checks
// it against the closed form: build a 4-state chain {u-start, r, D, U-hit}
// where the original UP state is split into a transient start copy and an
// absorbing "returned UP" copy; P+ is then the absorption probability of
// U-hit against D.
func TestPPlusViaAbsorption(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		m := avail.RandomMarkov3(rng.New(seed))
		puu := m.P(avail.Up, avail.Up)
		pur := m.P(avail.Up, avail.Reclaimed)
		pud := m.P(avail.Up, avail.Down)
		pru := m.P(avail.Reclaimed, avail.Up)
		prr := m.P(avail.Reclaimed, avail.Reclaimed)
		prd := m.P(avail.Reclaimed, avail.Down)
		// States: 0 = start (just left an UP slot), 1 = RECLAIMED,
		// 2 = DOWN (absorbing), 3 = UP again (absorbing).
		aux := oracle.MustChain([][]float64{
			{0, pur, pud, puu},
			{0, prr, prd, pru},
			{0, 0, 1, 0},
			{0, 0, 0, 1},
		})
		got, err := aux.AbsorptionProbability(0, 3, map[int]bool{2: true, 3: true})
		if err != nil {
			t.Fatal(err)
		}
		want := expect.PPlus(m)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: absorption P+ %v vs Lemma 1 %v", seed, got, want)
		}
	}
}

// TestExpectedUpStepViaFundamentalMatrix derives E(up) from the fundamental
// matrix of the conditioned chain. Conditioning on "UP before DOWN" (Doob
// h-transform with h(s) = P(reach UP before DOWN | s)) turns the auxiliary
// chain into one whose absorption time from the start state is exactly
// E(up) of Theorem 2's proof.
func TestExpectedUpStepViaFundamentalMatrix(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		m := avail.RandomMarkov3(rng.New(seed))
		puu := m.P(avail.Up, avail.Up)
		pur := m.P(avail.Up, avail.Reclaimed)
		pru := m.P(avail.Reclaimed, avail.Up)
		prr := m.P(avail.Reclaimed, avail.Reclaimed)
		// h(start) = P+, h(r) = P(reach U before D | r) = Pru/(1-Prr),
		// h(U) = 1. Conditioned transitions: p~(s,s') = p(s,s') h(s')/h(s).
		hStart := expect.PPlus(m)
		hr := 0.0
		if prr < 1 {
			hr = pru / (1 - prr)
		}
		if hStart <= 0 || hr <= 0 {
			continue // conditioning undefined; paper-rule chains never hit this
		}
		// States: 0 = start, 1 = r, 2 = U (absorbing).
		aux := oracle.MustChain([][]float64{
			{0, pur * hr / hStart, puu * 1 / hStart},
			{0, prr, pru / hr * 1}, // p~(r,r)=prr·hr/hr=prr; p~(r,U)=pru/hr
			{0, 0, 1},
		})
		abs, err := aux.Absorb(map[int]bool{2: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		steps, err := abs.ExpectedStepsToAbsorption(0)
		if err != nil {
			t.Fatal(err)
		}
		want := expect.ExpectedUpStep(m)
		if math.Abs(steps-want) > 1e-9 {
			t.Fatalf("seed %d: fundamental-matrix E(up) %v vs closed form %v",
				seed, steps, want)
		}
	}
}
