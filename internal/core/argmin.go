package core

import (
	"math"

	"repro/internal/minheap"
)

// This file is the large-slate argmin of the greedy family: a binary
// min-heap in scoreLess order. The linear argmin pass in Pick costs
// O(|eligible|) per decision, which is fine at paper scale (P = 20) but
// dominates a volunteer-grid round planning m tasks over thousands of UP
// workers — O(m·P) per slot. The heap makes the first decision of a round
// O(P) (one rebuild, same cost as a single linear pass) and each subsequent
// decision O(log P): between two Picks of the same round, the only score
// that can change is the last-picked worker's (its NQ moved, and in the
// corrected modes possibly the shared communication factors, which force a
// rebuild when they move).
//
// An earlier profile of this structure on Table 2's own P = 20 rounds
// found the heap bookkeeping cost ~10x the score evaluations it avoided
// (a full round, as benchmarked below, favours the heap even at n = 20),
// so it engages only when the slate reaches greedyHeapMinEligible.
// scoreLess is a strict total order, so the heap minimum IS the linear
// argmin — pick-for-pick identical, which the equivalence property tests
// pin by forcing the threshold to 1.
//
// Between two Picks only the root changes — the originals phase rescores
// the worker the previous Pick returned, the replica phase drops it — so
// the heap is internal/minheap's, which offers just heapify, replace-min
// and pop-min. Its 128-bit keys put orderKey(score) above the slate index,
// so the integer order is scoreLess's.
//
// BenchmarkGreedyArgmin, ns per pick over one full originals-phase round
// (emct*, ncom = n/4), medians of five runs on a 2-vCPU Xeon, linear / heap:
// n = 20: 359 / 183; n = 128: 2.2k / 238; n = 1k: 16.4k / 295; n = 10k:
// 148k / 377.

// greedyHeapMinEligible is the slate size at which Pick switches from the
// linear argmin to the heap: above Table 2's slate of 20, and already a
// large per-pick win on a full round. A package variable so tests can
// force the heap path on small slates.
var greedyHeapMinEligible = 128

// scoreHeap is a min-heap over a build-time copy of the eligible slate.
// Entries carry a slate index into the copy, which is stable for the heap's
// lifetime even though the engine compacts its own slate between replica
// picks; the copy is ascending, so ordering ties by index is ordering them
// by worker ID.
//
// Continuation state: a heap built during one Pick remains valid for the
// next exactly when nothing outside the recorded deltas changed. The
// anchors are the view epoch (constant within a scheduling round, bumped
// by every buildView), the slate identity (backing-array pointer plus
// length: the heap's length = originals phase, one shorter = the engine's
// order-preserving removal of the picked worker in the replica phase), the
// round's pick count (a missed or foreign pick breaks the chain), and the
// two hoisted communication factors (a factor move invalidates every
// engaged candidate at once, so the heap rebuilds).
type scoreHeap struct {
	slate []int // ascending worker IDs, copied at rebuild
	heap  minheap.Heap

	valid                      bool
	epoch                      int64
	slatePtr                   *int
	expectPicks                int
	factorEngaged, factorFresh int
}

// scoreKey is the heap key of slate index k scoring score.
func scoreKey(score float64, k int) minheap.Key {
	return minheap.Key{Hi: orderKey(score), Lo: uint64(k)}
}

// orderKey maps a score to an integer whose unsigned order is scoreLess's
// score order: −0 folds to +0 (they compare equal), every NaN becomes one
// value above +Inf's, and the rest follow IEEE 754's total order — a set
// sign bit flips every bit, a clear one sets the sign bit.
func orderKey(score float64) uint64 {
	if score != score {
		return math.MaxUint64
	}
	if score == 0 {
		score = 0
	}
	b := math.Float64bits(score)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// rebuild reloads the heap from the current slate, scoring every candidate
// through score (the cache-validated evaluation, so unchanged workers cost
// a few integer compares). O(n) — the same as one linear Pick.
func (h *scoreHeap) rebuild(eligible []int, score func(q int) float64) {
	h.slate = append(h.slate[:0], eligible...)
	h.heap = h.heap[:0]
	for k, q := range eligible {
		h.heap = append(h.heap, scoreKey(score(q), k))
	}
	h.heap.Init()
	h.slatePtr = &eligible[0]
	h.valid = true
}

// minIndex returns the slate index of the heap minimum — the unique
// scoreLess argmin over the live entries.
func (h *scoreHeap) minIndex() int { return int(h.heap[0].Lo) }
