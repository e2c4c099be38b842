package expect

import "repro/internal/avail"

// This file extends Section 5's analysis with second moments. The paper
// derives only the expectation E(W); the variance is obtained the same way,
// from the distribution of a single conditioned "up step" (the number of
// slots separating consecutive UP slots, conditioned on not passing through
// DOWN):
//
//	P(step = 1)      = P(u,u) / P+
//	P(step = k), k≥2 = P(u,r)·P(r,r)^(k−2)·P(r,u) / P+
//
// E(W) sums W−1 independent such steps, so Var(W) = (W−1)·Var(step).
// The risk-averse heuristic extension (core.NewRiskAverse) consumes this
// through Analytics.StdDevSlots.

// VarianceUpStep returns Var(step) for the conditioned up-step distribution.
func VarianceUpStep(m *avail.Markov3) float64 {
	puu := m.P(avail.Up, avail.Up)
	pur := m.P(avail.Up, avail.Reclaimed)
	pru := m.P(avail.Reclaimed, avail.Up)
	prr := m.P(avail.Reclaimed, avail.Reclaimed)
	pp := PPlus(m)
	if pp <= 0 || prr >= 1 {
		return 0
	}
	// E[X^2] = (Puu + Pur*Pru*S) / P+ with S = sum_{k>=2} k^2 * Prr^(k-2):
	// S = sum_{j>=0} (j+2)^2 x^j = x(1+x)/(1-x)^3 + 4x/(1-x)^2 + 4/(1-x).
	x := prr
	om := 1 - x
	s := x*(1+x)/(om*om*om) + 4*x/(om*om) + 4/om
	ex2 := (puu + pur*pru*s) / pp
	ex := ExpectedUpStep(m)
	v := ex2 - ex*ex
	if v < 0 {
		return 0 // numerical guard
	}
	return v
}
