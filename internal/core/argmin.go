package core

import (
	"math"

	"repro/internal/losertree"
)

// This file is the large-slate argmin of the greedy family, kept in a
// tournament (loser) tree in scoreLess order; the path is called "heap"
// beside the linear one. The linear argmin pass in Pick costs
// O(|eligible|) per decision, which is fine at paper scale (P = 20) but
// dominates a volunteer-grid round planning m tasks over thousands of UP
// workers — O(m·P) per slot. The tree makes the first decision of a round
// O(P) (one rebuild, same cost as a single linear pass) and each subsequent
// decision O(log P): between two Picks of the same round, the only score
// that can change is the last-picked worker's (its NQ moved, and in the
// corrected modes possibly the shared communication factors, which force a
// rebuild when they move).
//
// An earlier profile of this structure on Table 2's own P = 20 rounds
// found the bookkeeping cost ~10x the score evaluations it avoided (a full
// round, as benchmarked below, favours the tree even at n = 20), so it
// engages only when the slate reaches greedyHeapMinEligible.
// scoreLess is a strict total order, so the tree minimum IS the linear
// argmin — pick-for-pick identical, which the equivalence property tests
// pin by forcing the threshold to 1.
//
// Between two Picks only the minimum changes — the originals phase
// rescores the worker the previous Pick returned, the replica phase drops
// it — so the structure is internal/losertree's loser tree, which offers
// just a linear build, the minimum and replace-min. Its leaves are the
// slate indices and its keys orderKey(score), so its (key, leaf) order is
// scoreLess's; a dropped worker's leaf gets the sentinel key.
//
// BenchmarkGreedyArgmin, ns per pick over one full originals-phase round
// (emct*, ncom = n/4), medians of five runs on a 2-vCPU Xeon, linear / heap
// (the tree): n = 20: 347 / 179; n = 128: 2.1k / 225; n = 1k: 15.3k / 223;
// n = 10k: 157k / 244.

// greedyHeapMinEligible is the slate size at which Pick switches from the
// linear argmin to the tree: above Table 2's slate of 20, and already a
// large per-pick win on a full round. A package variable so tests can
// force the heap path on small slates.
var greedyHeapMinEligible = 128

// scoreHeap is a loser tree over a build-time copy of the eligible slate.
// Its leaves are slate indices into the copy, which is stable for the
// tree's lifetime even though the engine compacts its own slate between
// replica picks; the copy is ascending, so ordering ties by index is
// ordering them by worker ID.
//
// Continuation state: a tree built during one Pick remains valid for the
// next exactly when nothing outside the recorded deltas changed. The
// anchors are the view epoch (constant within a scheduling round, bumped
// by every buildView), the slate identity (backing-array pointer plus
// length: the live count = originals phase, one shorter = the engine's
// order-preserving removal of the picked worker in the replica phase), the
// round's pick count (a missed or foreign pick breaks the chain), and the
// two hoisted communication factors (a factor move invalidates every
// engaged candidate at once, so the tree rebuilds).
type scoreHeap struct {
	slate []int // ascending worker IDs, copied at rebuild
	keys  []uint64
	tree  losertree.Tree
	// live counts the leaves not yet dropped by the replica phase.
	live int

	valid                      bool
	epoch                      int64
	slatePtr                   *int
	expectPicks                int
	factorEngaged, factorFresh int
}

// nanKey is every NaN's orderKey: one above +Inf's, and still below
// losertree.Sentinel, so a live NaN-scored worker orders before a dropped
// one.
const nanKey = 0xfff0_0000_0000_0001

// orderKey maps a score to an integer whose unsigned order is scoreLess's
// score order: −0 folds to +0 (they compare equal), every NaN becomes
// nanKey, and the rest follow IEEE 754's total order — a set sign bit
// flips every bit, a clear one sets the sign bit.
func orderKey(score float64) uint64 {
	if score != score {
		return nanKey
	}
	if score == 0 {
		score = 0
	}
	b := math.Float64bits(score)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// rebuild reloads the tree from the current slate, scoring every candidate
// through score (the cache-validated evaluation, so unchanged workers cost
// a few integer compares). O(n) — the same as one linear Pick.
func (h *scoreHeap) rebuild(eligible []int, score func(q int) float64) {
	h.slate = append(h.slate[:0], eligible...)
	h.keys = h.keys[:0]
	for _, q := range eligible {
		h.keys = append(h.keys, orderKey(score(q)))
	}
	h.tree.Init(h.keys)
	h.live = len(eligible)
	h.slatePtr = &eligible[0]
	h.valid = true
}

// minIndex returns the slate index of the tree minimum — the unique
// scoreLess argmin over the live leaves.
func (h *scoreHeap) minIndex() int {
	k, _ := h.tree.Min()
	return k
}

// rescoreMin gives the minimum's leaf a new score.
func (h *scoreHeap) rescoreMin(score float64) { h.tree.ReplaceMin(orderKey(score)) }

// dropMin removes the minimum's leaf.
func (h *scoreHeap) dropMin() {
	h.tree.ReplaceMin(losertree.Sentinel)
	h.live--
}
