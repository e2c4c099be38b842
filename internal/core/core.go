// Package core implements the scheduling heuristics of Section 6 of the
// paper — the primary contribution of the reproduced work.
//
// All heuristics are "dynamic" in the paper's taxonomy: begun work is never
// abandoned, and every not-yet-begun task is re-assigned from scratch each
// time slot. Two families are provided:
//
//   - Random heuristics (Section 6.2): Random picks uniformly among UP
//     processors; Random1..Random4 weight processors by reliability measures
//     (P(u,u), P+, πu, 1−πd), and the "w" variants divide each weight by the
//     processor speed w_q.
//
//   - Greedy heuristics (Section 6.3): MCT picks the smallest estimated
//     completion time CT(P_q, n_q+1) (Equation 1); EMCT the smallest
//     expected completion time E(CT) under the Markov model (Theorem 2);
//     LW the largest probability (P+)^CT of surviving the workload; UD the
//     largest probability of staying out of DOWN for E(CT) slots. The
//     starred variants (MCT*, EMCT*, LW*, UD*) replace Tdata with the
//     contention-correcting factor ceil(n_active/n_com)·Tdata (Equation 2).
//
// Use New (or the Registry) to instantiate heuristics by name.
package core

import (
	"repro/internal/platform"
	"repro/internal/sim"
)

// Delay returns Delay(q) of Section 6.3.1: the number of slots before
// processor q finishes all begun work and can start something new, assuming
// it stays UP and suffers no network contention.
//
// The estimate accounts for the sequential transfer chain (remaining program
// then remaining data of the incoming task), the computation still owed for
// the incoming task, and the remaining computation of the task currently
// computed, with communication/computation overlap.
func Delay(pv *sim.ProcView) int { return DelayScaled(pv, 1) }

// CT returns CT(P_q, nq) — the estimated completion time of Equation 1 —
// with tdata as the per-task communication cost. Passing the raw Tdata gives
// Equation 1; passing the contention-corrected value gives Equation 2.
//
//	CT(P_q, n_q) = Delay(q) + tdata + max(n_q−1, 0)·max(tdata, w_q) + w_q
func CT(pv *sim.ProcView, nq int, tdata int) int {
	return ctWithDelay(Delay(pv), pv, nq, tdata)
}

// CTCorrected is CT with the contention slowdown applied to every
// communication quantity (Equation 2 generalized): the per-task data cost
// and the communication remainders inside Delay — the program and in-flight
// data a worker still has to receive also travel through the master's
// saturated card. commFactor is ceil(n_active / n_com).
func CTCorrected(pv *sim.ProcView, nq int, params *platform.Params, commFactor int) int {
	if commFactor < 1 {
		commFactor = 1
	}
	return ctWithDelay(DelayScaled(pv, commFactor), pv, nq, commFactor*params.Tdata)
}

func ctWithDelay(delay int, pv *sim.ProcView, nq int, tdata int) int {
	ct := delay + tdata + pv.W
	if nq > 1 {
		step := tdata
		if pv.W > step {
			step = pv.W
		}
		ct += (nq - 1) * step
	}
	return ct
}

// DelayScaled is Delay with communication remainders (program + in-flight
// data) multiplied by the contention slowdown factor; computation terms are
// unaffected.
func DelayScaled(pv *sim.ProcView, commFactor int) int {
	if pv.HasIncoming {
		// The incoming task's data lands after the program remainder plus
		// the data remainder; its computation starts when both the data and
		// the current computation are finished.
		dataAt := commFactor * (pv.RemProgram + pv.IncomingRem)
		start := dataAt
		if pv.ComputingRem > start {
			start = pv.ComputingRem
		}
		return start + pv.W
	}
	if pv.HasComputing {
		return pv.ComputingRem
	}
	// Idle processor: only the (possibly partial, possibly whole) program
	// transfer stands between it and new work.
	return commFactor * pv.RemProgram
}

// effectiveNActive is the nactive value used to score candidate q: the
// round's counter, plus one if choosing q would newly activate it.
func effectiveNActive(pv *sim.ProcView, rs *sim.RoundState) int {
	na := rs.NActive
	if rs.NQ[pv.ID] == 0 && !pv.Busy() {
		na++
	}
	return na
}
