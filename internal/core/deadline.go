package core

import (
	"math"

	"repro/internal/expect"
	"repro/internal/sim"
)

// deadlineSched is an extension heuristic (not in the paper) enabled by the
// completion-time distribution of internal/expect: instead of comparing
// expectations (EMCT) or crash-survival probabilities (LW/UD), it fixes a
// common soft deadline — slack × the best raw completion estimate among the
// candidates — and picks the processor with the highest probability of
// finishing its whole estimated workload by that deadline, crashes and
// reclaims included.
//
// This blends the EMCT and UD signals: a processor can lose either by being
// slow (like MCT penalizes), by being crash-prone (like UD penalizes), or
// by having high completion-time variance (which no paper heuristic sees).
type deadlineSched struct {
	slack float64
	// cts is Pick's scratch buffer (reused across calls).
	cts []int
	// The probability memo: DeadlineProbability(model, ct, deadline) is the
	// expensive part of a pick, and its inputs are fully determined by the
	// worker's view snapshot (tracked by the engine's change epoch), its
	// ct, and the round's common deadline. On engine-built views a worker's
	// probability is re-derived only when one of those moved.
	memoEp       []int64
	memoCt       []int
	memoDeadline []int
	memoP        []float64
}

// NewDeadline returns the deadline-probability heuristic. slack ≥ 1 widens
// the common deadline relative to the best candidate's CT; 1.5 works well.
func NewDeadline(slack float64) sim.Scheduler {
	if slack < 1 {
		slack = 1
	}
	return &deadlineSched{slack: slack}
}

// Name implements sim.Scheduler.
func (s *deadlineSched) Name() string { return "deadline" }

// PoolSafe implements sim.Poolable: the memo is keyed on the engine's
// process-wide unique change epochs, so reuse cannot validate stale state.
func (s *deadlineSched) PoolSafe() bool { return true }

// SkipPicks implements sim.PickSkipper as a no-op: the probability memo is
// keyed on its inputs, so skipped picks leave nothing to replay.
func (s *deadlineSched) SkipPicks(*sim.View, []int, *sim.RoundState, int) {}

// probability returns DeadlineProbability for worker q, via the memo when
// the view carries change tracking and none of the inputs moved.
func (s *deadlineSched) probability(v *sim.View, q, ct, deadline int) float64 {
	pv := &v.Procs[q]
	if v.Epoch == 0 || len(v.ProcEpochs) != len(v.Procs) {
		return expect.DeadlineProbability(pv.Model, ct, deadline)
	}
	if len(s.memoEp) < len(v.Procs) {
		s.memoEp = make([]int64, len(v.Procs))
		s.memoCt = make([]int, len(v.Procs))
		s.memoDeadline = make([]int, len(v.Procs))
		s.memoP = make([]float64, len(v.Procs))
	}
	if s.memoEp[q] == v.ProcEpochs[q] && s.memoCt[q] == ct && s.memoDeadline[q] == deadline {
		p := s.memoP[q]
		if v.SlowChecks {
			fresh := expect.DeadlineProbability(pv.Model, ct, deadline)
			if math.Float64bits(fresh) != math.Float64bits(p) {
				panic("core: deadline: stale memoized probability")
			}
		}
		return p
	}
	p := expect.DeadlineProbability(pv.Model, ct, deadline)
	s.memoEp[q] = v.ProcEpochs[q]
	s.memoCt[q] = ct
	s.memoDeadline[q] = deadline
	s.memoP[q] = p
	return p
}

// deadlineBetter reports whether a candidate with probability p and raw
// completion estimate ct beats the incumbent: higher probability first
// (beyond the 1e-12 float-noise window), ties broken by the smaller ct. A
// NaN probability can never beat a real one, a real one always beats NaN,
// and NaN pairs count as tied — so NaN can neither win nor shadow a scored
// candidate (the incumbent is always genuinely scored: Pick seeds it from a
// real first evaluation, never a sentinel).
func deadlineBetter(p float64, ct int, bestP float64, bestCT int) bool {
	switch {
	case math.IsNaN(p):
		return math.IsNaN(bestP) && ct < bestCT
	case math.IsNaN(bestP):
		return true
	default:
		return p > bestP+1e-12 || (math.Abs(p-bestP) <= 1e-12 && ct < bestCT)
	}
}

// Pick implements sim.Scheduler.
func (s *deadlineSched) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	// Common deadline from the best raw CT.
	bestCT := math.MaxInt
	if cap(s.cts) < len(eligible) {
		s.cts = make([]int, len(eligible))
	}
	cts := s.cts[:len(eligible)] // every entry is overwritten below
	for i, q := range eligible {
		ct := CT(&v.Procs[q], rs.NQ[q]+1, v.Params.Tdata)
		cts[i] = ct
		if ct < bestCT {
			bestCT = ct
		}
	}
	deadline := int(s.slack * float64(bestCT))
	if deadline < bestCT {
		deadline = bestCT
	}
	// Seed best from a real first evaluation — never a sentinel — so a NaN
	// probability can neither win against a scored candidate nor shadow one
	// through an unscored default.
	best := eligible[0]
	bestP := s.probability(v, best, cts[0], deadline)
	bestIdx := 0
	for i, q := range eligible {
		if i == 0 {
			continue
		}
		p := s.probability(v, q, cts[i], deadline)
		if deadlineBetter(p, cts[i], bestP, cts[bestIdx]) {
			best, bestP, bestIdx = q, p, i
		}
	}
	return best
}
