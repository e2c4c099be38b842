package avail_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/avail"
	"repro/internal/oracle"
	"repro/internal/rng"
)

// TestMarkov3MatchesOracleChain checks the 3-state chain that sweeps run
// against the general n-state chain of internal/oracle, bit for bit: the
// accepted matrices and error texts, the raw matrix P serves, the clamped
// matrix Matrix serves, the stationary vector, and the successor of every
// state at boundary and random uniforms and along Next sequences. Every pi
// feeds a heuristic score and every step feeds a trajectory, so a
// difference in the last bit moves the golden digests.
func TestMarkov3MatchesOracleChain(t *testing.T) {
	r := rng.New(2011)
	// The paper's rule (Section 7).
	for seed := uint64(1); seed <= 10_000; seed++ {
		m := avail.RandomMarkov3(rng.New(seed))
		var p [3][3]float64
		for i := range p {
			for j := range p[i] {
				p[i][j] = m.P(avail.State(i), avail.State(j))
			}
		}
		compareChain(t, "paper", p, r)
	}
	// General stochastic rows, some with zero entries.
	for n := 0; n < 10_000; n++ {
		var p [3][3]float64
		for i := range p {
			var sum float64
			for j := range p[i] {
				if r.Intn(4) > 0 || j == i {
					p[i][j] = r.Float64()
				}
				sum += p[i][j]
			}
			for j := range p[i] {
				p[i][j] /= sum
			}
		}
		compareChain(t, "general", p, r)
	}
	ok := [3]float64{0.2, 0.3, 0.5}
	for _, c := range []struct {
		name string
		p    [3][3]float64
	}{
		{"first-entry-below-zero", [3][3]float64{{-5e-10, 0.6 + 5e-10, 0.4}, {0.3, 0.3, 0.4}, ok}},
		{"entry-above-one", [3][3]float64{{1 + 8e-10, 0, -8e-10}, {0.3, 0.3, 0.4}, ok}},
		{"last-entry-below-zero", [3][3]float64{{0.6 + 5e-10, 0.4, -5e-10}, {0.3, 0.3, 0.4}, ok}},
		{"absorbing-reclaimed", [3][3]float64{{0.5, 0.5, 0}, {0, 1, 0}, {0.3, 0.3, 0.4}}},
		{"absorbing-up", [3][3]float64{{1, 0, 0}, {0.3, 0.3, 0.4}, ok}},
		{"zero-stay", [3][3]float64{{0, 0.5, 0.5}, {0.2, 0.7, 0.1}, {0.6, 0, 0.4}}},
		{"row-short-of-one", [3][3]float64{{0.5, 0.4999995, 0}, {0.3, 0.3, 0.4}, ok}},
		{"row-over-one", [3][3]float64{{0.5, 0.5000005, 0}, {0.3, 0.3, 0.4}, ok}},
		{"out-of-tolerance", [3][3]float64{{-2e-9, 0.6 + 2e-9, 0.4}, {0.3, 0.3, 0.4}, ok}},
		{"identity", [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}},
		{"nan", [3][3]float64{{math.NaN(), 0.5, 0.5}, {0.3, 0.3, 0.4}, ok}},
	} {
		compareChain(t, c.name, c.p, r)
	}
}

// compareChain builds p both ways and fails on the first difference.
func compareChain(t *testing.T, name string, p [3][3]float64, r *rng.PCG) {
	t.Helper()
	rows := make([][]float64, 3)
	for i := range rows {
		rows[i] = append([]float64(nil), p[i][:]...)
	}
	c, cerr := oracle.NewChain(rows)
	var pi []float64
	if cerr == nil {
		pi, cerr = c.Stationary()
	}
	m, err := avail.NewMarkov3(p)
	if cerr != nil || err != nil {
		if cerr == nil || err == nil || strings.TrimPrefix(err.Error(), "avail: markov: ") != strings.TrimPrefix(cerr.Error(), "oracle: ") {
			t.Fatalf("%s %v: NewMarkov3 error %v, oracle error %v", name, p, err, cerr)
		}
		return
	}
	piU, piR, piD := m.Stationary()
	for s, v := range []float64{piU, piR, piD} {
		if math.Float64bits(v) != math.Float64bits(pi[s]) {
			t.Fatalf("%s %v: pi[%d] = %v, oracle %v", name, p, s, v, pi[s])
		}
	}
	clamped := m.Matrix()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got := m.P(avail.State(i), avail.State(j)); math.Float64bits(got) != math.Float64bits(p[i][j]) {
				t.Fatalf("%s %v: P(%d,%d) = %v, want the raw entry", name, p, i, j, got)
			}
			if math.Float64bits(clamped[i][j]) != math.Float64bits(c.P(i, j)) {
				t.Fatalf("%s %v: Matrix()[%d][%d] = %v, oracle %v", name, p, i, j, clamped[i][j], c.P(i, j))
			}
		}
	}
	for s := 0; s < 3; s++ {
		us := []float64{0, math.Nextafter(1, 0)}
		var cum float64
		for _, v := range clamped[s] {
			cum += v
			us = append(us, cum, math.Nextafter(cum, 0), math.Nextafter(cum, 2))
		}
		for k := 0; k < 8; k++ {
			us = append(us, r.Float64())
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue
			}
			if got, want := avail.StepMarkov3(m, avail.State(s), u), avail.State(c.Step(s, u)); got != want {
				t.Fatalf("%s %v: step from %d at u=%v = %v, oracle %v", name, p, s, u, got, want)
			}
		}
	}
	seed := r.Uint64()
	initial := avail.State(r.Intn(3))
	proc := m.NewProcess(rng.New(seed), initial)
	draws := rng.New(seed)
	state := int(initial)
	for k := 0; k < 64; k++ {
		if k > 0 {
			state = c.Step(state, draws.Float64())
		}
		if got := proc.Next(); got != avail.State(state) {
			t.Fatalf("%s %v: Next #%d = %v, oracle %v", name, p, k, got, avail.State(state))
		}
	}
}
