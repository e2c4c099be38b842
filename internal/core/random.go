package core

import (
	"fmt"

	"repro/internal/avail"
	"repro/internal/rng"
	"repro/internal/sim"
)

// WeightFn computes a processor's selection weight for the weighted random
// heuristics of Section 6.2.
type WeightFn func(pv *sim.ProcView) float64

// Predefined reliability weights (Section 6.2), all reading the per-model
// cache in pv.Analytics rather than re-deriving Markov quantities per pick.
var (
	// WeightLongTimeUp is Random1: P(u,u), favoring processors that stay UP.
	WeightLongTimeUp WeightFn = func(pv *sim.ProcView) float64 {
		return pv.Model.P(avail.Up, avail.Up)
	}
	// WeightLikelyToWorkMore is Random2: P+, favoring processors likely to
	// be UP again before crashing.
	WeightLikelyToWorkMore WeightFn = func(pv *sim.ProcView) float64 {
		return pv.Analytics.PPlus
	}
	// WeightOftenUp is Random3: πu, favoring processors UP more often.
	WeightOftenUp WeightFn = func(pv *sim.ProcView) float64 {
		return pv.Analytics.PiU
	}
	// WeightRarelyDown is Random4: 1−πd, favoring processors DOWN less often.
	WeightRarelyDown WeightFn = func(pv *sim.ProcView) float64 {
		return 1 - pv.Analytics.PiD
	}
)

// randomSched implements the random family. A nil weight yields the plain
// uniform Random heuristic.
type randomSched struct {
	name    string
	weight  WeightFn
	bySpeed bool // divide the weight by w_q (the "w" variants)
	r       *rng.PCG
	// weights is Pick's scratch buffer, reused so the hot path stays
	// allocation-free after warm-up.
	weights []float64
	// wCache[q] memoizes the final (clamped, speed-scaled) weight of
	// worker q, keyed by its availability model pointer and speed — the
	// only inputs any reliability weight reads, and both constant for a
	// worker within a run. Models are immutable and interned, so a pointer
	// match guarantees an identical weight; a new run's platform brings new
	// pointers (or identical weights), either way preserving results.
	wCache []float64
	wKey   []*avail.Markov3
	wSpeed []int
}

// NewRandom returns the uniform Random heuristic.
func NewRandom(r *rng.PCG) sim.Scheduler {
	return &randomSched{name: "random", r: r}
}

// NewWeightedRandom returns a weighted random heuristic. idx selects the
// paper's weight (1..4); bySpeed divides weights by processor speed.
func NewWeightedRandom(idx int, bySpeed bool, r *rng.PCG) (sim.Scheduler, error) {
	var w WeightFn
	switch idx {
	case 1:
		w = WeightLongTimeUp
	case 2:
		w = WeightLikelyToWorkMore
	case 3:
		w = WeightOftenUp
	case 4:
		w = WeightRarelyDown
	default:
		return nil, fmt.Errorf("core: unknown random weight %d (want 1..4)", idx)
	}
	name := fmt.Sprintf("random%d", idx)
	if bySpeed {
		name += "w"
	}
	return &randomSched{name: name, weight: w, bySpeed: bySpeed, r: r}, nil
}

// Name implements sim.Scheduler.
func (s *randomSched) Name() string { return s.name }

// PoolSafe implements sim.Poolable: the only cross-run state is the RNG,
// which the pooling layer reseeds per run exactly as a fresh construction
// would (rng.PCG.Reseed / SplitInto).
func (s *randomSched) PoolSafe() bool { return true }

// Pick implements sim.Scheduler.
func (s *randomSched) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	if s.weight == nil {
		return eligible[s.r.Intn(len(eligible))]
	}
	weights, total := s.slateWeights(v, eligible)
	if total <= 0 {
		// Degenerate weights (e.g. all-zero reliability): fall back to
		// uniform so the pick is still valid.
		return eligible[s.r.Intn(len(eligible))]
	}
	return eligible[s.r.Categorical(weights)]
}

// SkipPicks implements sim.PickSkipper: it makes the n draws that n picks
// on this slate would have made — one Intn(len(eligible)) each on the
// uniform path, one Float64 each (Categorical's single draw) on the
// weighted one. The slate's weights depend only on per-worker constants, so
// every skipped pick would have seen the same total.
func (s *randomSched) SkipPicks(v *sim.View, eligible []int, _ *sim.RoundState, n int) {
	uniform := s.weight == nil
	if !uniform {
		_, total := s.slateWeights(v, eligible)
		uniform = total <= 0
	}
	for ; n > 0; n-- {
		if uniform {
			s.r.Intn(len(eligible))
			continue
		}
		s.r.Float64()
	}
}

// slateWeights returns the selection weight of every eligible worker (in
// Pick's scratch buffer) and their sum, through the per-worker cache.
func (s *randomSched) slateWeights(v *sim.View, eligible []int) ([]float64, float64) {
	if cap(s.weights) < len(eligible) {
		s.weights = make([]float64, len(eligible))
	}
	if len(s.wCache) < len(v.Procs) {
		s.wCache = make([]float64, len(v.Procs))
		s.wKey = make([]*avail.Markov3, len(v.Procs))
		s.wSpeed = make([]int, len(v.Procs))
	}
	weights := s.weights[:len(eligible)] // every entry is overwritten below
	var total float64
	for i, q := range eligible {
		pv := &v.Procs[q]
		w := s.wCache[q]
		if s.wKey[q] != pv.Model || s.wSpeed[q] != pv.W {
			w = s.weight(pv)
			if w < 0 {
				w = 0
			}
			if s.bySpeed {
				w /= float64(pv.W)
			}
			s.wCache[q] = w
			s.wKey[q] = pv.Model
			s.wSpeed[q] = pv.W
		}
		weights[i] = w
		total += w
	}
	return weights, total
}
