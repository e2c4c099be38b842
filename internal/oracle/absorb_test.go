package oracle

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestAbsorbGamblersRuin(t *testing.T) {
	// Classic 5-state gambler's ruin with fair coin: states 0..4,
	// 0 and 4 absorbing. From state i, P(absorbed at 4) = i/4.
	p := [][]float64{
		{1, 0, 0, 0, 0},
		{0.5, 0, 0.5, 0, 0},
		{0, 0.5, 0, 0.5, 0},
		{0, 0, 0.5, 0, 0.5},
		{0, 0, 0, 0, 1},
	}
	c := MustChain(p)
	abs, err := c.Absorb(map[int]bool{0: true, 4: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(abs.Transient) != 3 || len(abs.Absorbing) != 2 {
		t.Fatalf("partition: %v / %v", abs.Transient, abs.Absorbing)
	}
	for r, from := range abs.Transient {
		wantWin := float64(from) / 4
		// Absorbing order: [0, 4]; column 1 is state 4.
		if got := abs.B[r][1]; math.Abs(got-wantWin) > 1e-9 {
			t.Fatalf("P(win | start %d) = %v, want %v", from, got, wantWin)
		}
	}
	// Expected duration from the middle of a fair ruin on {0..4} is
	// i(4-i) = 4 for i=2.
	steps, err := abs.ExpectedStepsToAbsorption(2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(steps-4) > 1e-9 {
		t.Fatalf("expected steps from 2 = %v, want 4", steps)
	}
}

func TestAbsorbErrors(t *testing.T) {
	c := MustChain([][]float64{{1, 0}, {0.5, 0.5}})
	if _, err := c.Absorb(nil); err == nil {
		t.Fatal("empty absorbing set accepted")
	}
	// State 1 cannot be reached... actually state 0 absorbing works; make a
	// chain where a transient cannot reach absorption: 1 loops to itself.
	c2 := MustChain([][]float64{{1, 0}, {0, 1}})
	if _, err := c2.Absorb(map[int]bool{0: true}); err == nil {
		t.Fatal("unreachable absorption accepted")
	}
	if _, err := c.AbsorptionProbability(0, 0, map[int]bool{0: true}); err == nil {
		t.Fatal("absorbing start accepted")
	}
	if _, err := c.AbsorptionProbability(1, 1, map[int]bool{0: true}); err == nil {
		t.Fatal("non-absorbing target accepted")
	}
}

func TestAbsorptionProbabilityMatchesSimulation(t *testing.T) {
	r := rng.New(97)
	c := randomChain(r, 5)
	targets := map[int]bool{3: true, 4: true}
	want, err := c.AbsorptionProbability(0, 4, targets)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	const trials = 120000
	for i := 0; i < trials; i++ {
		state := 0
		for !targets[state] {
			state = c.Step(state, r.Float64())
		}
		if state == 4 {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-want) > 0.006 {
		t.Fatalf("absorption probability %v vs simulated %v", want, got)
	}
}

func TestFundamentalMatrixRowSumsMatchHittingTimes(t *testing.T) {
	// Row sums of N equal the expected hitting time of the absorbing set,
	// which ExpectedHittingTime computes by a different route.
	r := rng.New(98)
	for trial := 0; trial < 30; trial++ {
		c := randomChain(r, 4)
		targets := map[int]bool{3: true}
		abs, err := c.Absorb(targets)
		if err != nil {
			t.Fatal(err)
		}
		h, err := c.ExpectedHittingTime(targets)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range abs.Transient {
			steps, err := abs.ExpectedStepsToAbsorption(s)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(steps-h[s]) > 1e-8 {
				t.Fatalf("trial %d state %d: N row sum %v vs hitting time %v",
					trial, s, steps, h[s])
			}
		}
	}
}
