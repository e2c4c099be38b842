package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

// correctionMode selects how a greedy heuristic estimates communication.
type correctionMode int

const (
	// plainComm uses Equation 1: raw Tdata, contention ignored.
	plainComm correctionMode = iota
	// eq2Comm uses Equation 2 verbatim: Tdata scaled by ceil(nactive/ncom)
	// (the paper's * variants).
	eq2Comm
	// aggressiveComm additionally scales the communication remainders
	// inside Delay (program + in-flight data) by the same factor. This is
	// NOT in the paper; it is an extension explored by the ablation
	// benchmarks (registered under the "+" suffix).
	aggressiveComm
)

// greedySched implements the MCT/EMCT/LW/UD family: it scores every eligible
// processor for the task at hand and picks the best (lowest score; ties go
// to the lowest processor ID, which keeps runs deterministic; a NaN score
// can neither win nor shadow a real one — see scoreLess).
//
// On engine-built views (which carry change tracking, see sim.View.Epoch)
// scoring is incremental: scores live in a per-worker cache and only
// candidates whose inputs changed — their view snapshot, their NQ entry
// after a pick, or (corrected modes) the communication factor — are
// re-evaluated; the argmin pass compares cached values under the same
// scoreLess order as the reference scan. On untracked (hand-built) views,
// every Pick is the reference full scan. Both paths are bit-identical by
// construction and cross-checked by the slow-check oracle.
type greedySched struct {
	name string
	mode correctionMode
	// score maps (processor view, estimated completion time) to a
	// lower-is-better score.
	score func(pv *sim.ProcView, ct float64) float64
	// cache is the incremental scoring state, created on first tracked
	// Pick; noCache forces the reference path (the equivalence tests'
	// "plain" scheduler). argmin is the large-slate tree (argmin.go),
	// created the first time a slate reaches greedyHeapMinEligible.
	cache   *pickCache
	argmin  *scoreHeap
	noCache bool
	// mutSkip* deliberately break one cache-invalidation source each
	// (test-only): they exist so the mutation tests can prove the
	// slow-check oracle detects a rotted dirty-set contract.
	mutSkipEpoch, mutSkipNQ, mutSkipNA bool
}

// Name implements sim.Scheduler.
func (s *greedySched) Name() string { return s.name }

// PoolSafe implements sim.Poolable: all greedy state is keyed on the
// engine's process-wide unique change epochs, so reuse across runs (and
// even engines) cannot validate a stale score.
func (s *greedySched) PoolSafe() bool { return true }

// SkipPicks implements sim.PickSkipper as a no-op: the score cache and the
// argmin tree only memoize pure functions of their recorded inputs, so
// skipped picks leave nothing a later pick could observe.
func (s *greedySched) SkipPicks(*sim.View, []int, *sim.RoundState, int) {}

// commFactor returns the communication slowdown factor ceil(n_active/n_com)
// used by the corrected modes, clamped so an all-busy round still pays the
// raw cost once (matching the n_active clamp of oracle.CorrectedTdata, which
// TestCorrectedTdata checks it against, and CTCorrected's factor clamp).
func commFactor(na, ncom int) int {
	f := (na + ncom - 1) / ncom
	if f < 1 {
		f = 1
	}
	return f
}

// scoreWithFactor evaluates worker q's score given its precomputed
// communication factor (ignored in plain mode).
func (s *greedySched) scoreWithFactor(v *sim.View, rs *sim.RoundState, q, factor int) float64 {
	pv := &v.Procs[q]
	var ct float64
	switch s.mode {
	case plainComm:
		ct = float64(CT(pv, rs.NQ[q]+1, v.Params.Tdata))
	case eq2Comm:
		ct = float64(CT(pv, rs.NQ[q]+1, factor*v.Params.Tdata))
	case aggressiveComm:
		ct = float64(CTCorrected(pv, rs.NQ[q]+1, v.Params, factor))
	}
	return s.score(pv, ct)
}

// scoreOf evaluates worker q's score from scratch (the reference
// evaluation; the cache stores exactly these values).
func (s *greedySched) scoreOf(v *sim.View, rs *sim.RoundState, q int) float64 {
	factor := 0
	if s.mode != plainComm {
		factor = commFactor(effectiveNActive(&v.Procs[q], rs), v.Params.Ncom)
	}
	return s.scoreWithFactor(v, rs, q, factor)
}

// pickFlat is the reference argmin: a fresh evaluation of every eligible
// candidate, seeded from a real first evaluation (never a sentinel, so an
// all-+Inf slate still tie-breaks to the lowest ID and NaN cannot shadow a
// finite score).
func (s *greedySched) pickFlat(v *sim.View, eligible []int, rs *sim.RoundState) (int, float64) {
	best := eligible[0]
	bestScore := s.scoreOf(v, rs, best)
	for _, q := range eligible[1:] {
		score := s.scoreOf(v, rs, q)
		if scoreLess(score, q, bestScore, best) {
			best, bestScore = q, score
		}
	}
	return best, bestScore
}

// cachedIfValid returns worker q's cached score when its recorded inputs —
// the view snapshot, the NQ entry and (corrected modes) the communication
// factor it was computed from — all compare equal to the present ones. The
// factor is the caller's precomputed commFactor for q (ignored in plain
// mode).
func (s *greedySched) cachedIfValid(c *pickCache, v *sim.View, rs *sim.RoundState, q, factor int) (float64, bool) {
	sc, ep, nq, fa := c.get(q)
	if !s.mutSkipEpoch && ep != v.ProcEpochs[q] {
		return 0, false
	}
	if !s.mutSkipNQ && int(nq) != rs.NQ[q] {
		return 0, false
	}
	if s.mode != plainComm && !s.mutSkipNA && int(fa) != factor {
		return 0, false
	}
	return sc, true
}

// cachedScore returns worker q's score through the cache: the cached value
// when its inputs are current, a fresh evaluation (recorded back) otherwise.
func (s *greedySched) cachedScore(c *pickCache, v *sim.View, rs *sim.RoundState, q, factor int) float64 {
	if sc, ok := s.cachedIfValid(c, v, rs, q, factor); ok {
		return sc
	}
	sc := s.scoreWithFactor(v, rs, q, factor)
	c.put(q, sc, v.ProcEpochs[q], int32(rs.NQ[q]), int32(factor))
	return sc
}

// candidateFactor selects worker q's communication factor from the two
// hoisted values: the effective n_active is rs.NActive plus one iff picking
// q would newly activate it. Plain mode ignores factors; 0 keeps the cache
// key stable.
func (s *greedySched) candidateFactor(v *sim.View, rs *sim.RoundState, q, factorEngaged, factorFresh int) int {
	if s.mode == plainComm {
		return 0
	}
	if pv := &v.Procs[q]; rs.NQ[q] == 0 && !pv.Busy() {
		return factorFresh
	}
	return factorEngaged
}

// Pick implements sim.Scheduler.
func (s *greedySched) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	if s.noCache || v.Epoch == 0 || len(v.ProcEpochs) != len(v.Procs) {
		best, _ := s.pickFlat(v, eligible, rs)
		return best
	}
	c := s.cache
	if c == nil {
		c = &pickCache{}
		s.cache = c
	}
	c.ensure(len(v.Procs))

	// Both factor values a single Pick can need (corrected modes): per
	// candidate, the effective n_active is rs.NActive plus one iff picking
	// the candidate would newly activate it, so hoist both ceil-divisions.
	var factorEngaged, factorFresh int
	if s.mode != plainComm {
		factorEngaged = commFactor(rs.NActive, v.Params.Ncom)
		factorFresh = commFactor(rs.NActive+1, v.Params.Ncom)
	}

	var best int
	if len(eligible) >= greedyHeapMinEligible {
		best = s.pickHeap(c, v, eligible, rs, factorEngaged, factorFresh)
	} else {
		best = s.pickLinear(c, v, eligible, rs, factorEngaged, factorFresh)
	}
	if v.SlowChecks {
		s.verifyAgainstRescan(c, v, eligible, rs, best)
	}
	return best
}

// pickLinear is the small-slate argmin: one validated pass over the slate —
// per candidate, compare the cached score's recorded inputs against the
// current ones (a handful of integer compares) and re-evaluate only on
// mismatch, tracking the argmin in the same order and traversal as the
// reference scan. Equivalence to pickFlat is structural; the per-decision
// cost is O(changed evaluations + |eligible| compares).
func (s *greedySched) pickLinear(c *pickCache, v *sim.View, eligible []int, rs *sim.RoundState, factorEngaged, factorFresh int) int {
	best := -1
	var bestScore float64
	for _, q := range eligible {
		factor := s.candidateFactor(v, rs, q, factorEngaged, factorFresh)
		sc := s.cachedScore(c, v, rs, q, factor)
		if best < 0 || scoreLess(sc, q, bestScore, best) {
			best, bestScore = q, sc
		}
	}
	return best
}

// pickHeap is the large-slate argmin (see argmin.go): it continues the
// round's tree when only the recorded deltas happened since the previous
// Pick — same view epoch, same pick chain, same factor pair, and a slate
// that is either unchanged (originals phase; the last pick's NQ moved, so
// the minimum is rescored in place) or exactly the last pick shorter
// (replica phase; the minimum is dropped) — and rebuilds it otherwise at
// linear-pass cost. The tree minimum is returned; scoreLess being a strict
// total order makes it the unique linear argmin.
func (s *greedySched) pickHeap(c *pickCache, v *sim.View, eligible []int, rs *sim.RoundState, factorEngaged, factorFresh int) int {
	h := s.argmin
	if h == nil {
		h = &scoreHeap{}
		s.argmin = h
	}
	cont := h.valid && h.epoch == v.Epoch && rs.Picks == h.expectPicks &&
		h.factorEngaged == factorEngaged && h.factorFresh == factorFresh &&
		h.slatePtr == &eligible[0]
	if cont {
		// The previous Pick returned the minimum.
		k := h.minIndex()
		q := h.slate[k]
		switch {
		case len(eligible) == h.live:
			// Originals phase: the slate is unchanged and only the picked
			// worker's NQ (and with it, possibly its factor choice) moved.
			factor := s.candidateFactor(v, rs, q, factorEngaged, factorFresh)
			h.rescoreMin(s.cachedScore(c, v, rs, q, factor))
		case len(eligible) == h.live-1 && !slateContains(eligible, q):
			// Replica phase: the engine compacted the picked worker out of
			// the slate (order-preserving, so ascending order holds).
			h.dropMin()
		default:
			cont = false
		}
	}
	if !cont {
		h.rebuild(eligible, func(q int) float64 {
			return s.cachedScore(c, v, rs, q, s.candidateFactor(v, rs, q, factorEngaged, factorFresh))
		})
		h.epoch = v.Epoch
		h.factorEngaged, h.factorFresh = factorEngaged, factorFresh
	}
	h.expectPicks = rs.Picks + 1
	return h.slate[h.minIndex()]
}

// slateContains reports whether worker q is on the (ascending) slate.
func slateContains(eligible []int, q int) bool {
	k := sort.SearchInts(eligible, q)
	return k < len(eligible) && eligible[k] == q
}

// verifyAgainstRescan is the full-rescore oracle: with slow checks armed,
// every cached decision is rederived from a fresh scan — the argmin (and
// its exact score bits) plus every valid cache entry on the slate. Any
// divergence means an invalidation site rotted; panic like the engine's
// own slow checks do.
func (s *greedySched) verifyAgainstRescan(c *pickCache, v *sim.View, eligible []int, rs *sim.RoundState, best int) {
	fb, fscore := s.pickFlat(v, eligible, rs)
	bestCached, _, _, _ := c.get(best)
	if fb != best || math.Float64bits(fscore) != math.Float64bits(bestCached) {
		panic(fmt.Sprintf("core: %s: slot %d: incremental argmin (worker %d, score %v) != full rescan (worker %d, score %v)",
			s.name, v.Slot, best, bestCached, fb, fscore))
	}
	for _, q := range eligible {
		factor := 0
		if s.mode != plainComm {
			factor = commFactor(effectiveNActive(&v.Procs[q], rs), v.Params.Ncom)
		}
		cached, ok := s.cachedIfValid(c, v, rs, q, factor)
		if !ok {
			continue
		}
		fresh := s.scoreOf(v, rs, q)
		if math.Float64bits(fresh) != math.Float64bits(cached) {
			panic(fmt.Sprintf("core: %s: slot %d: stale cached score for worker %d: cached %v, fresh %v",
				s.name, v.Slot, q, cached, fresh))
		}
	}
}

// scoreMCT minimizes the estimated completion time itself.
func scoreMCT(_ *sim.ProcView, ct float64) float64 { return ct }

// scoreEMCT minimizes E(CT), the expected number of slots needed to be UP
// during CT slots without going DOWN (Theorem 2). The per-model expectation
// machinery is precomputed in pv.Analytics, so scoring is pure arithmetic.
func scoreEMCT(pv *sim.ProcView, ct float64) float64 {
	return pv.Analytics.ExpectedSlots(ct)
}

// scoreLW maximizes (P+)^CT, computed in log space to survive large CT.
func scoreLW(pv *sim.ProcView, ct float64) float64 {
	a := pv.Analytics
	if a.PPlus <= 0 {
		return math.Inf(1)
	}
	// Maximize ct·ln(P+)  ⇔  minimize ct·(−ln(P+)).
	return ct * a.NegLogPPlus
}

// scoreUD maximizes the approximate P_UD(k) at k = E(CT), in log space:
// minimize −ln P_UD(k) = −ln(1−P(u,d)) − (k−2)·ln(perSlot), with the
// per-slot survival rate and both logarithms cached per model.
func scoreUD(pv *sim.ProcView, ct float64) float64 {
	a := pv.Analytics
	return a.UDScore(a.ExpectedSlots(ct))
}

func greedyScore(base string) func(*sim.ProcView, float64) float64 {
	switch base {
	case "mct":
		return scoreMCT
	case "emct":
		return scoreEMCT
	case "lw":
		return scoreLW
	case "ud":
		return scoreUD
	default:
		panic("core: unknown greedy base " + base)
	}
}

// NewGreedy builds a greedy heuristic from its base name ("mct", "emct",
// "lw", "ud") and correction mode suffix: "" = Equation 1, "*" = Equation 2,
// "+" = the aggressive extension (non-paper; see correctionMode).
func NewGreedy(base string, mode correctionMode) sim.Scheduler {
	suffix := ""
	switch mode {
	case eq2Comm:
		suffix = "*"
	case aggressiveComm:
		suffix = "+"
	}
	return &greedySched{name: base + suffix, mode: mode, score: greedyScore(base)}
}

// NewMCT returns the MCT heuristic (Section 6.3.1): minimize the estimated
// completion time CT(P_q, n_q+1) of Equation 1. corrected=true yields MCT*
// (Equation 2).
func NewMCT(corrected bool) sim.Scheduler { return NewGreedy("mct", modeOf(corrected)) }

// NewEMCT returns the EMCT heuristic; corrected=true yields EMCT*.
func NewEMCT(corrected bool) sim.Scheduler { return NewGreedy("emct", modeOf(corrected)) }

// NewLW returns the LW ("Likely to Work") heuristic (Section 6.3.2);
// corrected=true yields LW*.
func NewLW(corrected bool) sim.Scheduler { return NewGreedy("lw", modeOf(corrected)) }

// NewUD returns the UD ("Unlikely Down") heuristic (Section 6.3.3);
// corrected=true yields UD*.
func NewUD(corrected bool) sim.Scheduler { return NewGreedy("ud", modeOf(corrected)) }

func modeOf(corrected bool) correctionMode {
	if corrected {
		return eq2Comm
	}
	return plainComm
}

// NewRiskAverse returns an extension heuristic (not in the paper): it
// minimizes E(CT) + λ·σ(CT), penalizing processors whose conditioned
// completion times are *volatile*, not just long. σ comes from the
// closed-form variance of Theorem 2's walk (expect.Analytics.StdDevSlots).
// λ = 0 degenerates to EMCT.
func NewRiskAverse(lambda float64) sim.Scheduler {
	if lambda < 0 {
		lambda = 0
	}
	return &greedySched{
		name: "remct",
		mode: plainComm,
		score: func(pv *sim.ProcView, ct float64) float64 {
			a := pv.Analytics
			return a.ExpectedSlots(ct) + lambda*a.StdDevSlots(ct)
		},
	}
}
