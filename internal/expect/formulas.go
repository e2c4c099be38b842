// Package expect implements the availability analytics of Section 5 of the
// paper: closed-form expressions, under the 3-state Markov model, for
//
//   - P+ (Lemma 1): the probability that a processor currently UP will be UP
//     again at some later slot without passing through DOWN;
//   - E(W) (Theorem 2): the expected number of slots a processor currently UP
//     needs to accumulate W slots of UP time, conditioned on not going DOWN
//     before finishing;
//   - P_UD(k): the probability that a processor currently UP stays out of
//     DOWN for k slots, in the paper's "forget the state after the first
//     transition" approximation (Section 6.3.3), as Analytics.UDScore.
//
// These quantities are what the informed heuristics (EMCT, EMCT*, LW, LW*,
// UD, UD*) consume. The tests check them against the reference forms and
// Monte Carlo estimators of internal/oracle.
package expect

import "repro/internal/avail"

// PPlus returns P+ for the given availability model (Lemma 1):
//
//	P+ = P(u,u) + P(u,r)·P(r,u) / (1 − P(r,r)).
//
// This is the probability that a processor UP now is UP again at a later
// slot before ever entering DOWN, accounting for an arbitrary number of
// intermediate RECLAIMED slots.
func PPlus(m *avail.Markov3) float64 {
	puu := m.P(avail.Up, avail.Up)
	pur := m.P(avail.Up, avail.Reclaimed)
	pru := m.P(avail.Reclaimed, avail.Up)
	prr := m.P(avail.Reclaimed, avail.Reclaimed)
	if prr >= 1 {
		// RECLAIMED is absorbing: the processor can only return by staying UP.
		return puu
	}
	return puu + pur*pru/(1-prr)
}

// ExpectedUpStep returns E(up): the expected number of slots separating an
// UP slot from the next UP slot, conditioned on not entering DOWN in
// between. E(up) = 1 + z / ((1 − P(r,r))(1 + z)) with
// z = P(u,r)·P(r,u) / (P(u,u)·(1 − P(r,r))).
func ExpectedUpStep(m *avail.Markov3) float64 {
	puu := m.P(avail.Up, avail.Up)
	pur := m.P(avail.Up, avail.Reclaimed)
	pru := m.P(avail.Reclaimed, avail.Up)
	prr := m.P(avail.Reclaimed, avail.Reclaimed)
	if prr >= 1 || puu == 0 {
		// Degenerate chains: if the processor cannot return through
		// RECLAIMED, conditioned on success each step takes exactly one slot.
		if puu > 0 {
			return 1
		}
		if pur*pru == 0 || prr >= 1 {
			return 1 // success impossible; conditional expectation vacuous
		}
		// Pure u->r...r->u cycles: geometric number of r slots plus the u slot.
		return 1 + 1/(1-prr)
	}
	z := pur * pru / (puu * (1 - prr))
	return 1 + z/((1-prr)*(1+z))
}

// ExpectedSlots returns E(W) (Theorem 2): the expected total number of slots
// (starting from, and including, the current UP slot) needed to accumulate W
// UP slots, conditioned on the processor never entering DOWN meanwhile:
//
//	E(W) = W + (W−1) · [P(u,r)·P(r,u)/(1 − P(r,r))] ·
//	       1 / [P(u,u)·(1 − P(r,r)) + P(u,r)·P(r,u)].
//
// Implemented as E(W) = 1 + (W−1)·E(up), the form the theorem's proof
// derives, which stays finite for all valid chains. W may be fractional
// because callers feed in expected workloads; W ≤ 1 returns W unchanged.
func ExpectedSlots(m *avail.Markov3, w float64) float64 {
	if w <= 1 {
		return w
	}
	return 1 + (w-1)*ExpectedUpStep(m)
}
