package core

// This file holds the incremental scoring state of the greedy family: a
// per-worker score cache whose entries are re-used while their recorded
// inputs compare equal to the current ones, so a Pick re-evaluates only
// candidates whose inputs changed.
//
// A cached score for worker q is a pure function of three inputs:
//
//   - q's ProcView — tracked by the engine's per-worker change epoch
//     (View.ProcEpochs[q]; see the contract on sim.View);
//   - rs.NQ[q], the tasks piled on q this round (reset every round,
//     bumped when q is picked);
//   - for the contention-corrected modes, the communication slowdown
//     factor ceil(n_active/n_com) — the score depends on n_active only
//     through this factor, so invalidation is keyed on the factor and a
//     pick that moves n_active within the same ceil bucket invalidates
//     nothing.
//
// Staleness is impossible by construction (every input is compared on
// every use), and the slow-check oracle (View.SlowChecks) re-derives every
// decision from a fresh scan and panics on any divergence.
//
// The argmin over the eligible slate is a linear pass under scoreLess on
// paper-scale platforms, and a loser tree (argmin.go) once the slate
// crosses greedyHeapMinEligible — pick-for-pick identical because scoreLess
// is a strict total order.

// scoreLess is the strict total order all argmin paths share: lower score
// first, NaN after every non-NaN ("a NaN score can neither win nor shadow
// a finite one"), ties broken by the lower worker ID. The first two
// comparisons settle the overwhelmingly common case (distinct non-NaN
// scores) and are correct in the presence of NaN: both are false when
// either side is NaN, falling through to the explicit ordering.
func scoreLess(s1 float64, id1 int, s2 float64, id2 int) bool {
	if s1 < s2 {
		return true
	}
	if s2 < s1 {
		return false
	}
	// Equal scores, or at least one NaN (x != x exactly for NaN).
	n1, n2 := s1 != s1, s2 != s2
	if n1 != n2 {
		return n2
	}
	return id1 < id2
}

// Cache pages hold cachePageSize workers each; pages allocate lazily on
// first write, so a scheduler's resident cache is O(workers actually
// scored) — on a volunteer grid where most of a 100k-worker platform never
// comes UP, the cache never materializes pages for the permanently-DOWN
// span. cachePageShift is log2(cachePageSize).
const (
	cachePageShift = 9
	cachePageSize  = 1 << cachePageShift
)

// cachePage is one fixed-size block of cache entries. A zero page is all
// invalid: scoredEp 0 never equals a real change epoch (the engine's epoch
// counter starts at 1), so fresh pages need no initialization.
type cachePage struct {
	score    [cachePageSize]float64
	scoredEp [cachePageSize]int64
	scoredNQ [cachePageSize]int32
	// scoredFactor is the communication factor used (corrected modes only;
	// plain mode never compares it).
	scoredFactor [cachePageSize]int32
}

// pickCache is the incremental state of one greedy scheduler instance,
// indexed by worker ID. Stale content from earlier runs is harmless because
// the engine's change epochs are process-wide unique (an old stamp never
// equals a new one).
type pickCache struct {
	pages []*cachePage
}

// ensure sizes the page table for a platform of p processors (the pages
// themselves stay nil until written).
func (c *pickCache) ensure(p int) {
	np := (p + cachePageSize - 1) >> cachePageShift
	if len(c.pages) >= np {
		return
	}
	if cap(c.pages) >= np {
		c.pages = c.pages[:np]
		return
	}
	pages := make([]*cachePage, np)
	copy(pages, c.pages)
	c.pages = pages
}

// get returns worker q's cache entry (zero values when its page was never
// written — always invalid, since no real epoch is 0).
func (c *pickCache) get(q int) (score float64, ep int64, nq, factor int32) {
	pg := c.pages[q>>cachePageShift]
	if pg == nil {
		return 0, 0, 0, 0
	}
	off := q & (cachePageSize - 1)
	return pg.score[off], pg.scoredEp[off], pg.scoredNQ[off], pg.scoredFactor[off]
}

// put records worker q's score and the inputs it was computed from,
// materializing q's page on first touch.
func (c *pickCache) put(q int, score float64, ep int64, nq, factor int32) {
	pi := q >> cachePageShift
	pg := c.pages[pi]
	if pg == nil {
		pg = new(cachePage)
		c.pages[pi] = pg
	}
	off := q & (cachePageSize - 1)
	pg.score[off] = score
	pg.scoredEp[off] = ep
	pg.scoredNQ[off] = nq
	pg.scoredFactor[off] = factor
}
