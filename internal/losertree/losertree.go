// Package losertree is the loser tree (Knuth, TAOCP vol. 3, §5.4.1) behind
// the greedy schedulers' large-slate argmin and the availability tape's
// transition merge. Both users only ever change the minimum between two
// reads of it — a rescored or re-armed minimum goes back in its place, an
// exhausted one leaves — so the tree offers exactly a linear build, the
// minimum and replace-min. Removing the minimum is a replace-min with
// Sentinel.
//
// Leaves are 0..n-1, for any n. Leaf i sits at position n+i and the parent
// of position p is p/2, so every internal position 1..n-1 has two children.
// Each internal node holds the leaf that lost the match played there, with
// its key, and node 0 holds the overall winner. Replace-min walks from the
// winner's leaf to the root, replaying the winner's matches: the path is
// fixed by the leaf index before the walk starts, so every load on it can
// be in flight at once, and only the branch-free selects between them
// depend on each other. A sift in a binary heap instead decides each
// level's address by the comparison one level up.
//
// Keys are one uint64 per leaf; ties go to the lower leaf index, so the
// order is (key, leaf) and the minimum is a function of the key set alone.
// Each user encodes its strict total order in the keys: the tape's is
// (slot, worker), the argmin's is (orderKey(score), slate index).
package losertree

import (
	"fmt"
	"math"
	"math/bits"
)

// Sentinel is the key of a leaf that has left: it orders after every other
// key, and among sentinels the lower leaf still wins.
const Sentinel uint64 = math.MaxUint64

// entry is one match result: a leaf and the key it played with.
type entry struct {
	key  uint64
	leaf uint32
}

// lessBit is 1 when a orders before b and 0 otherwise: the borrow out of
// the two-word subtraction (a.key, a.leaf) − (b.key, b.leaf).
func lessBit(a, b entry) uint64 {
	_, borrow := bits.Sub64(uint64(a.leaf), uint64(b.leaf), 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	return borrow
}

// match plays a against b and returns the winner and the loser, without
// branches.
func match(a, b entry) (win, lose entry) {
	m := -lessBit(b, a) // all ones when b wins: a and b swap
	dk, dl := (a.key^b.key)&m, (a.leaf^b.leaf)&uint32(m)
	return entry{a.key ^ dk, a.leaf ^ dl}, entry{b.key ^ dk, b.leaf ^ dl}
}

// Tree is a loser tree over n leaves. The zero value has no leaves; Init
// builds it.
type Tree struct {
	// node[0] is the winner; node[p], 1 ≤ p < n, the loser at position p.
	node []entry
}

// Init builds the tree over len(keys) leaves, leaf i holding keys[i], in
// O(len(keys)). It keeps no reference to keys and reuses the previous
// build's storage. An empty tree behaves as a single Sentinel leaf.
func (t *Tree) Init(keys []uint64) {
	n := len(keys)
	if uint64(n) > math.MaxUint32 {
		panic(fmt.Sprintf("losertree: %d leaves, at most %d", n, uint32(math.MaxUint32)))
	}
	if n == 0 {
		t.node = append(t.node[:0], entry{key: Sentinel})
		return
	}
	if cap(t.node) < n {
		t.node = make([]entry, n)
	}
	nd := t.node[:n]
	t.node = nd
	// at is the winner of the subtree at position c during the build: a
	// leaf, or what the first pass below left at c.
	at := func(c int) entry {
		if c >= n {
			return entry{keys[c-n], uint32(c - n)}
		}
		return nd[c]
	}
	// Bottom-up, each internal node first holds its subtree's winner; then
	// top-down, before its children's winners are replaced, each node
	// takes the loser of its match.
	for p := n - 1; p > 0; p-- {
		nd[p], _ = match(at(2*p), at(2*p+1))
	}
	nd[0] = at(1)
	for p := 1; p < n; p++ {
		_, nd[p] = match(at(2*p), at(2*p+1))
	}
}

// Min returns the winning leaf and its key: the least (key, leaf).
func (t *Tree) Min() (leaf int, key uint64) {
	w := t.node[0]
	return int(w.leaf), w.key
}

// ReplaceMin gives the winning leaf the key k and replays its matches on
// the way to the root.
func (t *Tree) ReplaceMin(k uint64) {
	nd := t.node
	w := entry{k, nd[0].leaf}
	for p := (uint(len(nd)) + uint(w.leaf)) / 2; p > 0; p /= 2 {
		w, nd[p] = match(w, nd[p])
	}
	nd[0] = w
}
