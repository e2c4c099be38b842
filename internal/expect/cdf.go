package expect

import (
	"repro/internal/avail"
)

// CompletionCDF computes the full distribution of the Section 5 walk, going
// beyond the paper's expectation: starting from an UP slot (which counts as
// the first of w required UP slots), it returns F where F[t] is the
// probability that the workload has accumulated its w UP slots within the
// first t slots without the processor ever entering DOWN. F[0] = 0 and
// F has length horizon+1.
//
// The limit F[horizon→∞] is the success probability (P+)^(w−1) of Theorem
// 2's proof, and the conditional mean Σ t·ΔF / F∞ equals E(w) — both are
// enforced by tests. The CDF enables deadline-aware scheduling policies
// (what is the probability this worker makes the barrier?) that the paper's
// expectation-only machinery cannot express.
func CompletionCDF(m *avail.Markov3, w int, horizon int) []float64 {
	f := make([]float64, horizon+1)
	if horizon < 1 {
		return f
	}
	if w <= 1 {
		// Completed within the very first slot.
		for t := 1; t <= horizon; t++ {
			f[t] = 1
		}
		return f
	}
	puu := m.P(avail.Up, avail.Up)
	pur := m.P(avail.Up, avail.Reclaimed)
	pru := m.P(avail.Reclaimed, avail.Up)
	prr := m.P(avail.Reclaimed, avail.Reclaimed)

	// probUp[k] / probRe[k]: probability of being alive at the current slot
	// in state UP/RECLAIMED with k UP slots accumulated (k < w).
	probUp := make([]float64, w)
	probRe := make([]float64, w)
	nextUp := make([]float64, w)
	nextRe := make([]float64, w)
	probUp[1] = 1 // slot 1: UP, one unit accumulated
	var done float64
	for t := 2; t <= horizon; t++ {
		for k := range nextUp {
			nextUp[k], nextRe[k] = 0, 0
		}
		var completedNow float64
		for k := 1; k < w; k++ {
			pu, pr := probUp[k], probRe[k]
			if pu == 0 && pr == 0 {
				continue
			}
			gain := pu*puu + pr*pru // moves to UP: accumulates one unit
			if k+1 == w {
				completedNow += gain
			} else {
				nextUp[k+1] += gain
			}
			nextRe[k] += pu*pur + pr*prr
			// Transitions to DOWN leave the system (failure).
		}
		done += completedNow
		probUp, nextUp = nextUp, probUp
		probRe, nextRe = nextRe, probRe
		f[t] = done
	}
	return f
}

// DeadlineProbability returns the probability that a workload of w UP slots,
// started in an UP slot, completes within d slots without a crash — the
// quantity a deadline-aware scheduler compares across processors.
func DeadlineProbability(m *avail.Markov3, w, d int) float64 {
	if d < 1 {
		return 0
	}
	cdf := CompletionCDF(m, w, d)
	return cdf[d]
}
