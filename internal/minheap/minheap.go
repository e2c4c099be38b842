// Package minheap is the binary min-heap behind the greedy schedulers'
// large-slate argmin and the availability tape's transition merge. Both
// users only ever change the root between two reads of it — a rescored or
// re-armed minimum goes back in its place, an exhausted one leaves — so the
// heap offers exactly heapify, replace-min and pop-min, and needs no
// position index.
//
// Keys are 128-bit unsigned integers compared without branches, through
// the borrow out of a two-word subtraction. Each user encodes its strict
// total order in them: the tape's is (slot, worker), the argmin's is
// (orderKey(score), slate index). Distinct keys make the pop sequence a
// function of the key set alone, whatever order the entries arrived in.
//
// Sifts are bottom-up: the hole walks to a leaf along the smaller child,
// one comparison per level, and the new key then climbs back from there.
// A replaced minimum usually belongs near the leaves, so the climb is
// short, where a top-down sift pays two unpredictable comparisons at every
// level it sinks. In `volabench -exp largep -p 10000 -mode event
// -scenarios 1 -trials 1` the argmin's 7.8M replace-mins walked 10.8
// levels down and climbed 1.4 back on average. A 4-ary bottom-up variant
// measured within noise of this binary heap on BenchmarkGreedyArgmin
// (n = 1k and 10k, medians of five runs each).
package minheap

import "math/bits"

// Key is a heap key: the unsigned integer Hi·2^64 + Lo.
type Key struct{ Hi, Lo uint64 }

// Less reports whether a orders before b.
func Less(a, b Key) bool { return lessBit(a, b) != 0 }

// lessBit is 1 when a orders before b and 0 otherwise: the borrow out of
// the 128-bit subtraction a − b.
func lessBit(a, b Key) uint64 {
	_, borrow := bits.Sub64(a.Lo, b.Lo, 0)
	_, borrow = bits.Sub64(a.Hi, b.Hi, borrow)
	return borrow
}

// Heap is a binary min-heap: every key orders no earlier than its parent
// h[(i-1)/2]. Fill it with append, then call Init.
type Heap []Key

// Init establishes the heap order over all of h in O(len(h)).
func (h Heap) Init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.sift(i, h[i])
	}
}

// ReplaceMin puts k in place of the minimum. h must not be empty.
func (h Heap) ReplaceMin(k Key) { h.sift(0, k) }

// PopMin removes the minimum. h must not be empty.
func (h *Heap) PopMin() {
	last := len(*h) - 1
	k := (*h)[last]
	*h = (*h)[:last]
	if last > 0 {
		h.sift(0, k)
	}
}

// sift fills the hole at i with k, given that both subtrees below i are
// heaps: the hole walks down to a leaf, taking the smaller child's place
// at each level, and k then climbs back up, never above i.
func (h Heap) sift(i int, k Key) {
	top, n := i, len(h)
	c := 2*i + 1
	for ; c+1 < n; c = 2*i + 1 {
		c += int(lessBit(h[c+1], h[c]))
		h[i] = h[c]
		i = c
	}
	if c < n { // a lone left child
		h[i] = h[c]
		i = c
	}
	for i > top {
		p := (i - 1) / 2
		if !Less(k, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}
