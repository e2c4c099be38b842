package oracle

import (
	"math"

	"repro/internal/avail"
	"repro/internal/expect"
	"repro/internal/platform"
)

// SuccessProbability returns (P+)^(w−1): the probability that a processor
// starting UP accumulates w UP slots before ever entering DOWN (the
// normalizing constant of Theorem 2's conditional expectation).
func SuccessProbability(m *avail.Markov3, w int) float64 {
	if w <= 1 {
		return 1
	}
	pp := expect.PPlus(m)
	out := 1.0
	for i := 1; i < w; i++ {
		out *= pp
	}
	return out
}

// SurvivalUD returns the exact probability that a processor UP now avoids
// DOWN for k consecutive slots (including the current one):
//
//	P_UD(k) = [1 1] · M^(k−1) · [1 0]^T,
//
// where M is the 2x2 sub-matrix of the transition matrix restricted to
// {UP, RECLAIMED} (Section 6.3.3). k ≤ 1 returns 1 (it is already UP).
func SurvivalUD(m *avail.Markov3, k int) float64 {
	if k <= 1 {
		return 1
	}
	// M restricted to {u, r}, row-stochastic orientation M[i][j] = P(i->j).
	// Survival from UP over k-1 transitions is e_u^T · M^(k-1) · 1: iterate
	// the all-ones column vector y <- M·y (k-1 times) and read the UP entry.
	// (The paper writes [1 1]·M^(k-1)·[1 0]^T with M column-stochastic;
	// both expressions denote the same number.)
	a := m.P(avail.Up, avail.Up)
	b := m.P(avail.Up, avail.Reclaimed)
	c := m.P(avail.Reclaimed, avail.Up)
	d := m.P(avail.Reclaimed, avail.Reclaimed)
	yu, yr := 1.0, 1.0
	for j := 0; j < k-1; j++ {
		yu, yr = a*yu+b*yr, c*yu+d*yr
	}
	return yu
}

// SurvivalUDFrac evaluates SurvivalUD at a fractional horizon by geometric
// interpolation between the neighbouring integers: heuristics feed expected
// (real-valued) workloads into the survival probability.
func SurvivalUDFrac(m *avail.Markov3, k float64) float64 {
	if k <= 1 {
		return 1
	}
	lo := int(math.Floor(k))
	hi := lo + 1
	pLo := SurvivalUD(m, lo)
	if float64(lo) == k {
		return pLo
	}
	pHi := SurvivalUD(m, hi)
	if pLo <= 0 {
		return 0
	}
	frac := k - float64(lo)
	// Geometric interpolation preserves the exponential decay shape.
	return pLo * math.Pow(pHi/pLo, frac)
}

// SurvivalUDApprox is the paper's closed-form approximation of P_UD(k),
// obtained by forgetting the exact state after the first transition and
// using stationary weights for the per-slot death probability:
//
//	P_UD(k) ≈ (1 − P(u,d)) · (1 − (P(u,d)·πu + P(r,d)·πr)/(πu + πr))^(k−2).
//
// Accepts fractional k (the heuristics plug in E(W)); k ≤ 1 returns 1. The
// UD heuristics score with expect.Analytics.UDScore, its negative logarithm.
func SurvivalUDApprox(m *avail.Markov3, k float64) float64 {
	if k <= 1 {
		return 1
	}
	pud := m.P(avail.Up, avail.Down)
	prd := m.P(avail.Reclaimed, avail.Down)
	piU, piR, _ := m.Stationary()
	if piU+piR == 0 {
		return 0
	}
	perSlot := 1 - (pud*piU+prd*piR)/(piU+piR)
	if perSlot < 0 {
		perSlot = 0
	}
	return (1 - pud) * math.Pow(perSlot, k-2)
}

// CorrectedTdata returns the contention-correcting communication cost of
// Section 6.3.1: ceil(nactive/ncom) · Tdata, where nactive counts the
// processors put to work in the current scheduling round (including the
// candidate being scored). nactive is clamped to at least 1 so the first
// assignment of a round still pays Tdata. internal/core's greedy scorers
// compute the same factor with commFactor.
func CorrectedTdata(params *platform.Params, nactive int) int {
	if nactive < 1 {
		nactive = 1
	}
	factor := (nactive + params.Ncom - 1) / params.Ncom
	return factor * params.Tdata
}

// VarianceSlots returns Var of the total slots needed to accumulate a
// workload of W UP slots, conditioned on never entering DOWN:
// (W−1)·expect.VarianceUpStep. W ≤ 1 has zero variance.
func VarianceSlots(m *avail.Markov3, w float64) float64 {
	if w <= 1 {
		return 0
	}
	return (w - 1) * expect.VarianceUpStep(m)
}

// StdDevSlots is the square root of VarianceSlots.
func StdDevSlots(m *avail.Markov3, w float64) float64 {
	return math.Sqrt(VarianceSlots(m, w))
}
