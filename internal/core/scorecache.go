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
// The argmin over the eligible slate is the loser tree of argmin.go at
// every slate size; its (key, leaf) order is scoreLess's, so it picks what
// the reference scan picks.

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

// cacheEntry is one worker's cached score and the inputs it was computed
// from. The zero entry is invalid: ep 0 never equals a real change epoch
// (the engine's epoch counter starts at 1), so fresh entries need no
// initialization.
type cacheEntry struct {
	score float64
	ep    int64
	nq    int32
	// factor is the communication factor used (corrected modes only;
	// plain mode never compares it).
	factor int32
}

// pickCache is the incremental state of one greedy scheduler instance,
// indexed by worker ID and grown to the largest platform seen. Stale
// content from earlier runs is harmless because the engine's change epochs
// are process-wide unique (an old stamp never equals a new one).
type pickCache []cacheEntry

// ensure grows the cache to cover a platform of p processors.
func (c *pickCache) ensure(p int) {
	if n := len(*c); n < p {
		*c = append(*c, make([]cacheEntry, p-n)...)
	}
}
