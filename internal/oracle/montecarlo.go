package oracle

import (
	"repro/internal/avail"
	"repro/internal/rng"
)

// This file provides Monte-Carlo estimators for the closed forms of
// internal/expect and for SurvivalUD. They validate the analytics: the
// paper's Lemma 1 and Theorem 2 carry proofs, but their transcription must
// be checked.

// maxWalk bounds a single conditioned walk; trajectories longer than this
// are abandoned as failures. With the paper's parameter ranges the
// probability of a legitimate walk reaching this bound is negligible.
const maxWalk = 10_000_000

// EstimatePPlus estimates P+ by simulating `trials` walks that start UP and
// end at the first UP (success) or DOWN (failure) slot.
func EstimatePPlus(m *avail.Markov3, r *rng.PCG, trials int) float64 {
	success := 0
	for i := 0; i < trials; i++ {
		p := m.NewProcess(r, avail.Up)
		p.Next() // consume slot 0 (the conditioning UP slot)
	walk:
		for steps := 0; steps < maxWalk; steps++ {
			switch p.Next() {
			case avail.Up:
				success++
				break walk
			case avail.Down:
				break walk
			}
		}
	}
	return float64(success) / float64(trials)
}

// EstimateExpectedSlots estimates E(W) by simulating conditioned walks: each
// walk starts in an UP slot (which counts toward the workload) and runs until
// W UP slots have been accumulated; walks that hit DOWN are discarded
// (the expectation is conditioned on completion). It returns the mean number
// of slots of successful walks and the number of successes.
func EstimateExpectedSlots(m *avail.Markov3, w int, r *rng.PCG, trials int) (mean float64, successes int) {
	if w < 1 {
		return 0, trials
	}
	var total float64
	for i := 0; i < trials; i++ {
		p := m.NewProcess(r, avail.Up)
		p.Next() // slot 0: UP, counts as 1 unit of workload
		up := 1
		slots := 1
		ok := true
		for up < w {
			if slots >= maxWalk {
				ok = false
				break
			}
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
			total += float64(slots)
			successes++
		}
	}
	if successes == 0 {
		return 0, 0
	}
	return total / float64(successes), successes
}

// EstimateSurvivalUD estimates P_UD(k): the probability that a processor UP
// now stays out of DOWN for k consecutive slots (including the current one).
func EstimateSurvivalUD(m *avail.Markov3, k int, r *rng.PCG, trials int) float64 {
	if k <= 1 {
		return 1
	}
	alive := 0
	for i := 0; i < trials; i++ {
		p := m.NewProcess(r, avail.Up)
		p.Next() // slot 0
		ok := true
		for s := 1; s < k; s++ {
			if p.Next() == avail.Down {
				ok = false
				break
			}
		}
		if ok {
			alive++
		}
	}
	return float64(alive) / float64(trials)
}
