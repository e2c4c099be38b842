package oracle

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewChainValidation(t *testing.T) {
	cases := []struct {
		name string
		p    [][]float64
		ok   bool
	}{
		{"empty", nil, false},
		{"non-square", [][]float64{{1, 0}}, false},
		{"row-sum", [][]float64{{0.5, 0.4}, {0.5, 0.5}}, false},
		{"negative", [][]float64{{-0.1, 1.1}, {0.5, 0.5}}, false},
		{"nan", [][]float64{{math.NaN(), 1}, {0.5, 0.5}}, false},
		{"valid", [][]float64{{0.9, 0.1}, {0.2, 0.8}}, true},
		{"identity", [][]float64{{1, 0}, {0, 1}}, true},
	}
	for _, tc := range cases {
		_, err := NewChain(tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

func TestChainIsDeepCopied(t *testing.T) {
	p := [][]float64{{0.9, 0.1}, {0.2, 0.8}}
	c := MustChain(p)
	p[0][0] = 0
	if c.P(0, 0) != 0.9 {
		t.Fatal("chain aliased the caller's matrix")
	}
}

func TestStationaryTwoState(t *testing.T) {
	// Birth-death 2-state chain: pi = (b/(a+b), a/(a+b)) for P01=a, P10=b.
	c := MustChain([][]float64{{0.7, 0.3}, {0.6, 0.4}})
	pi, err := c.Stationary()
	if err != nil {
		t.Fatal(err)
	}
	want0 := 0.6 / 0.9
	if !almostEqual(pi[0], want0, 1e-12) || !almostEqual(pi[1], 1-want0, 1e-12) {
		t.Fatalf("pi = %v, want (%v, %v)", pi, want0, 1-want0)
	}
}

func TestStationaryMatchesPowerIteration(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 100; trial++ {
		c := randomChain(r, 2+r.Intn(5))
		pi, err := c.Stationary()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pp, err := c.StationaryPower(200000, 1e-13)
		if err != nil {
			t.Fatalf("trial %d: power: %v", trial, err)
		}
		for i := range pi {
			if !almostEqual(pi[i], pp[i], 1e-6) {
				t.Fatalf("trial %d: solver %v vs power %v", trial, pi, pp)
			}
		}
	}
}

func TestStationaryFixedPointProperty(t *testing.T) {
	// Property: pi P = pi and sum(pi) = 1 for random ergodic chains.
	r := rng.New(22)
	f := func(seedDelta uint32) bool {
		rr := rng.New(uint64(seedDelta) + r.Uint64()%1000)
		c := randomChain(rr, 2+rr.Intn(6))
		pi, err := c.Stationary()
		if err != nil {
			return false
		}
		var sum float64
		for _, v := range pi {
			if v < 0 {
				return false
			}
			sum += v
		}
		if !almostEqual(sum, 1, 1e-9) {
			return false
		}
		for j := 0; j < c.N(); j++ {
			var dot float64
			for i := 0; i < c.N(); i++ {
				dot += pi[i] * c.P(i, j)
			}
			if !almostEqual(dot, pi[j], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStepDistribution(t *testing.T) {
	c := MustChain([][]float64{{0.5, 0.3, 0.2}, {0.1, 0.8, 0.1}, {0.25, 0.25, 0.5}})
	r := rng.New(23)
	const n = 300000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[c.Step(0, r.Float64())]++
	}
	want := []float64{0.5, 0.3, 0.2}
	for j, w := range want {
		got := float64(counts[j]) / n
		if math.Abs(got-w) > 0.005 {
			t.Fatalf("Step from 0 hit state %d with freq %v, want %v", j, got, w)
		}
	}
}

func TestStepEdgeUniforms(t *testing.T) {
	c := MustChain([][]float64{{1, 0}, {0, 1}})
	if c.Step(0, 0) != 0 || c.Step(0, 0.999999999) != 0 {
		t.Fatal("absorbing state 0 left")
	}
	if c.Step(1, 0) != 1 {
		t.Fatal("absorbing state 1 left")
	}
	// A row with zero first entry must never return state 0.
	c2 := MustChain([][]float64{{0, 1}, {0.5, 0.5}})
	if c2.Step(0, 0) != 1 {
		t.Fatal("Step returned zero-probability state")
	}
}

func TestExpectedHittingTimeTwoState(t *testing.T) {
	// From state 0, P(hit 1 each step) = a. Expected time = 1/a.
	a := 0.25
	c := MustChain([][]float64{{1 - a, a}, {0, 1}})
	h, err := c.ExpectedHittingTime(map[int]bool{1: true})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(h[0], 1/a, 1e-9) || h[1] != 0 {
		t.Fatalf("h = %v, want (4, 0)", h)
	}
}

func TestExpectedHittingTimeUnreachable(t *testing.T) {
	// State 0 can never reach state 1.
	c := MustChain([][]float64{{1, 0}, {0.5, 0.5}})
	if _, err := c.ExpectedHittingTime(map[int]bool{1: true}); err == nil {
		t.Fatal("expected error for unreachable target")
	}
}

func TestExpectedHittingTimeMatchesSimulation(t *testing.T) {
	r := rng.New(25)
	c := randomChain(r, 4)
	h, err := c.ExpectedHittingTime(map[int]bool{3: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 60000
	var sum float64
	for i := 0; i < n; i++ {
		state := 0
		steps := 0
		for state != 3 {
			state = c.Step(state, r.Float64())
			steps++
			if steps > 1_000_000 {
				t.Fatal("runaway walk")
			}
		}
		sum += float64(steps)
	}
	got := sum / n
	if math.Abs(got-h[0])/h[0] > 0.05 {
		t.Fatalf("simulated hitting time %v vs analytic %v", got, h[0])
	}
}

// randomChain builds a random ergodic chain: every entry gets positive mass.
func randomChain(r *rng.PCG, n int) *Chain {
	p := make([][]float64, n)
	for i := range p {
		p[i] = make([]float64, n)
		var sum float64
		for j := range p[i] {
			v := 0.05 + r.Float64()
			p[i][j] = v
			sum += v
		}
		for j := range p[i] {
			p[i][j] /= sum
		}
	}
	return MustChain(p)
}
