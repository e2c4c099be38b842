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

func TestCompletionCDFTrivialWorkload(t *testing.T) {
	m := paperModel(1)
	f := expect.CompletionCDF(m, 1, 5)
	if f[0] != 0 {
		t.Fatal("F[0] must be 0")
	}
	for tt := 1; tt <= 5; tt++ {
		if f[tt] != 1 {
			t.Fatalf("w=1: F[%d] = %v, want 1", tt, f[tt])
		}
	}
	if got := expect.CompletionCDF(m, 3, 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("horizon 0: %v", got)
	}
}

func TestCompletionCDFMonotone(t *testing.T) {
	f := func(seed uint64, wRaw uint8) bool {
		w := int(wRaw%20) + 2
		m := avail.RandomMarkov3(rng.New(seed))
		cdf := expect.CompletionCDF(m, w, 300)
		for t := 1; t < len(cdf); t++ {
			if cdf[t] < cdf[t-1]-1e-12 || cdf[t] > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionCDFLimitIsSuccessProbability(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		m := paperModel(seed)
		for _, w := range []int{2, 5, 10} {
			cdf := expect.CompletionCDF(m, w, 5000)
			limit := cdf[len(cdf)-1]
			want := oracle.SuccessProbability(m, w)
			if math.Abs(limit-want) > 1e-6 {
				t.Fatalf("seed %d w=%d: CDF limit %v vs (P+)^(w-1) = %v",
					seed, w, limit, want)
			}
		}
	}
}

func TestCompletionCDFMeanMatchesTheorem2(t *testing.T) {
	// The conditional mean of the CDF's distribution must equal E(W):
	// E[T | success] = sum t * dF(t) / F(inf).
	for seed := uint64(1); seed <= 10; seed++ {
		m := paperModel(seed)
		for _, w := range []int{2, 7, 15} {
			const horizon = 8000
			cdf := expect.CompletionCDF(m, w, horizon)
			fInf := oracle.SuccessProbability(m, w)
			var mean float64
			for t := 1; t <= horizon; t++ {
				mean += float64(t) * (cdf[t] - cdf[t-1])
			}
			mean /= fInf
			want := expect.ExpectedSlots(m, float64(w))
			if math.Abs(mean-want)/want > 1e-3 {
				t.Fatalf("seed %d w=%d: CDF mean %v vs E(W) %v", seed, w, mean, want)
			}
		}
	}
}

func TestCompletionCDFMatchesMonteCarlo(t *testing.T) {
	m := paperModel(3)
	const w = 6
	cdf := expect.CompletionCDF(m, w, 60)
	r := rng.New(303)
	const trials = 150000
	counts := make([]int, 61)
	for i := 0; i < trials; i++ {
		p := m.NewProcess(r, avail.Up)
		p.Next()
		up, slots, ok := 1, 1, true
		for up < w && slots <= 60 {
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
		if ok && up == w && slots <= 60 {
			counts[slots]++
		}
	}
	cum := 0
	for tt := 1; tt <= 60; tt++ {
		cum += counts[tt]
		emp := float64(cum) / trials
		if math.Abs(emp-cdf[tt]) > 0.005 {
			t.Fatalf("t=%d: empirical %v vs analytic %v", tt, emp, cdf[tt])
		}
	}
}

func TestDeadlineProbability(t *testing.T) {
	m := paperModel(4)
	if expect.DeadlineProbability(m, 5, 0) != 0 {
		t.Fatal("deadline 0 must be impossible")
	}
	// The workload needs at least w slots.
	if got := expect.DeadlineProbability(m, 5, 4); got != 0 {
		t.Fatalf("deadline below w: %v, want 0", got)
	}
	// Monotone in the deadline and bounded by the success probability.
	prev := 0.0
	for d := 5; d <= 100; d += 5 {
		p := expect.DeadlineProbability(m, 5, d)
		if p < prev {
			t.Fatalf("deadline prob decreased at %d", d)
		}
		prev = p
	}
	if prev > oracle.SuccessProbability(m, 5)+1e-9 {
		t.Fatalf("deadline prob %v exceeds success probability", prev)
	}
}

func BenchmarkCompletionCDF(b *testing.B) {
	m := paperModel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = expect.CompletionCDF(m, 20, 1000)
	}
}
