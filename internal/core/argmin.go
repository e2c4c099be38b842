package core

// This file is the large-slate argmin of the greedy family: an indexed
// binary min-heap under scoreLess. The linear argmin pass in Pick costs
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
// Entries hold their score inline ({score, k}), so a comparison reads one
// array, and sifts move a hole, writing each displaced entry once. A 4-ary
// fan-out measured within noise of binary at n = 1k and 10k.
// BenchmarkGreedyArgmin, ns per pick over one full originals-phase round
// (emct*, ncom = n/4; 2-vCPU 2.1 GHz Xeon, medians of three runs, ±30%
// host noise), linear / heap: n = 20: ~600 / 292; n = 128: ~3.6k / 346;
// n = 1k: ~27k / 540; n = 10k: ~220k / 908.

// greedyHeapMinEligible is the slate size at which Pick switches from the
// linear argmin to the heap: above Table 2's slate of 20, and already a
// large per-pick win on a full round. A package variable so tests can
// force the heap path on small slates.
var greedyHeapMinEligible = 128

// scoreHeap is an indexed binary min-heap over a build-time copy of the
// eligible slate. Entries carry a slate index k into the copy, which is
// stable for the heap's lifetime even though the engine compacts its own
// slate between replica picks; the copy is ascending, so ordering ties by
// k is ordering them by worker ID. pos tracks each entry's heap position
// so rescoring or deleting one entry is O(log n).
//
// Continuation state: a heap built during one Pick remains valid for the
// next exactly when nothing outside the recorded deltas changed. The
// anchors are the view epoch (constant within a scheduling round, bumped
// by every buildView), the slate identity (backing-array pointer plus
// length: same length = originals phase, one shorter = the engine's
// order-preserving removal of the picked worker in the replica phase), the
// round's pick count (a missed or foreign pick breaks the chain), and the
// two hoisted communication factors (a factor move invalidates every
// engaged candidate at once, so the heap rebuilds).
type scoreHeap struct {
	slate []int        // ascending worker IDs, copied at rebuild
	heap  []scoreEntry // heap entries
	pos   []int32      // pos[k]: heap position of slate index k, -1 = deleted

	valid                      bool
	epoch                      int64
	slatePtr                   *int
	slateLen                   int
	expectPicks                int
	lastK                      int32 // slate index of the last pick (the root it returned)
	factorEngaged, factorFresh int
}

// scoreEntry is one heap entry: slate index k and its score.
type scoreEntry struct {
	score float64
	k     int32
}

func (a scoreEntry) less(b scoreEntry) bool {
	return scoreLess(a.score, int(a.k), b.score, int(b.k))
}

// place writes entry e at heap position i.
func (h *scoreHeap) place(i int, e scoreEntry) {
	h.heap[i] = e
	h.pos[e.k] = int32(i)
}

// siftUp moves e up from the hole at position i.
func (h *scoreHeap) siftUp(i int, e scoreEntry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !e.less(h.heap[parent]) {
			break
		}
		h.place(i, h.heap[parent])
		i = parent
	}
	h.place(i, e)
}

// siftDown moves e down from the hole at position i.
func (h *scoreHeap) siftDown(i int, e scoreEntry) {
	n := len(h.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h.heap[right].less(h.heap[child]) {
			child = right
		}
		if !h.heap[child].less(e) {
			break
		}
		h.place(i, h.heap[child])
		i = child
	}
	h.place(i, e)
}

// replace puts e at position i in place of the entry there and restores
// the order: at most one direction can move.
func (h *scoreHeap) replace(i int, e scoreEntry) {
	if e.less(h.heap[i]) {
		h.siftUp(i, e)
	} else {
		h.siftDown(i, e)
	}
}

// rebuild reloads the heap from the current slate, scoring every candidate
// through score (the cache-validated evaluation, so unchanged workers cost
// a few integer compares). O(n) — the same as one linear Pick.
func (h *scoreHeap) rebuild(eligible []int, score func(q int) float64) {
	n := len(eligible)
	h.slate = append(h.slate[:0], eligible...)
	h.heap = h.heap[:0]
	h.pos = h.pos[:0]
	for k, q := range eligible {
		h.heap = append(h.heap, scoreEntry{score(q), int32(k)})
		h.pos = append(h.pos, int32(k))
	}
	for i := n/2 - 1; i >= 0; i-- {
		h.siftDown(i, h.heap[i])
	}
	h.slatePtr = &eligible[0]
	h.slateLen = n
	h.valid = true
}

// update rescores slate index k and restores the heap order.
func (h *scoreHeap) update(k int32, score float64) {
	h.replace(int(h.pos[k]), scoreEntry{score, k})
}

// delete removes slate index k from the heap (the engine removed its worker
// from the slate): the last entry fills its position.
func (h *scoreHeap) delete(k int32) {
	i, last := int(h.pos[k]), len(h.heap)-1
	e := h.heap[last]
	h.heap = h.heap[:last]
	h.pos[k] = -1
	if i < last {
		h.replace(i, e)
	}
}

// minWorker returns the worker holding the heap minimum — the unique
// scoreLess argmin over the live entries.
func (h *scoreHeap) minWorker() int { return h.slate[h.heap[0].k] }
