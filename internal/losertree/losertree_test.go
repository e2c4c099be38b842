package losertree

import (
	"math"
	"math/rand"
	"testing"
)

// TestLessIsLexicographic checks the borrow-chain comparison against the
// (key, leaf) lexicographic order, on every pair of keys and leaves at the
// edges of their unsigned ranges (where a missed or spurious borrow shows)
// and on random entries.
func TestLessIsLexicographic(t *testing.T) {
	ref := func(a, b entry) bool { return a.key < b.key || (a.key == b.key && a.leaf < b.leaf) }
	keys := []uint64{0, 1, 2, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	leaves := []uint32{0, 1, 2, 1<<31 - 1, 1 << 31, math.MaxUint32 - 1, math.MaxUint32}
	var es []entry
	for _, k := range keys {
		for _, l := range leaves {
			es = append(es, entry{k, l})
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		es = append(es, entry{r.Uint64() >> uint(r.Intn(64)), r.Uint32() >> uint(r.Intn(32))})
	}
	for _, a := range es {
		for _, b := range es {
			if got, want := lessBit(a, b) != 0, ref(a, b); got != want {
				t.Fatalf("lessBit(%#x, %#x) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// checkTree fails unless t holds exactly the tournament over keys: node 0
// the least (key, leaf) and every internal node the loser of the match
// between its two subtrees' winners, recomputed from the leaves by a plain
// scan rather than by the tree's own comparison.
func checkTree(t *testing.T, tr *Tree, keys []uint64) {
	t.Helper()
	n := len(keys)
	if len(tr.node) != n {
		t.Fatalf("tree has %d nodes over %d leaves", len(tr.node), n)
	}
	less := func(a, b entry) bool { return a.key < b.key || (a.key == b.key && a.leaf < b.leaf) }
	win := make([]entry, 2*n)
	for i, k := range keys {
		win[n+i] = entry{k, uint32(i)}
	}
	for p := n - 1; p > 0; p-- {
		a, b := win[2*p], win[2*p+1]
		w, l := a, b
		if less(b, a) {
			w, l = b, a
		}
		win[p] = w
		if tr.node[p] != l {
			t.Fatalf("node %d holds %+v, the loser of its match is %+v", p, tr.node[p], l)
		}
	}
	if tr.node[0] != win[1] {
		t.Fatalf("winner %+v, want %+v", tr.node[0], win[1])
	}
}

// scanMin is the reference minimum: a linear scan over (key, leaf).
func scanMin(keys []uint64) (int, uint64) {
	best := 0
	for i, k := range keys {
		if k < keys[best] {
			best = i
		}
	}
	return best, keys[best]
}

// TestTreeMatchesLinearScan drives one tree, rebuilt at every size, through
// random replace-mins against a linear scan of (key, leaf). Sizes cover one
// leaf, odd and even counts, and a power of two and one past it, where the
// leaves sit at two depths. Keys come from a tiny range (dense equal keys,
// so the leaf tie-break decides), from the full range, or are Sentinel;
// a fifth of the replace-mins are pops, which write Sentinel; and every
// size also starts once from an all-Sentinel tree. After every operation
// the minimum must equal the scan's and every node must hold the loser of
// its match.
func TestTreeMatchesLinearScan(t *testing.T) {
	var tr Tree
	tr.Init(nil)
	if leaf, key := tr.Min(); leaf != 0 || key != Sentinel {
		t.Fatalf("empty tree's Min = (%d, %#x), want (0, Sentinel)", leaf, key)
	}
	for _, n := range []int{1, 2, 3, 5, 20, 1000, 1025} {
		for seed := int64(0); seed < 6; seed++ {
			r := rand.New(rand.NewSource(seed*7919 + int64(n)))
			draw := func() uint64 {
				switch r.Intn(5) {
				case 0:
					return Sentinel
				case 1:
					return r.Uint64()
				default:
					return uint64(r.Intn(4))
				}
			}
			keys := make([]uint64, n)
			for i := range keys {
				if seed == 0 {
					keys[i] = Sentinel
				} else {
					keys[i] = draw()
				}
			}
			tr.Init(keys)
			checkTree(t, &tr, keys)
			ops := 3 * n
			if ops < 40 {
				ops = 40
			}
			for op := 0; op < ops; op++ {
				leaf, key := tr.Min()
				if wl, wk := scanMin(keys); leaf != wl || key != wk {
					t.Fatalf("n=%d seed %d op %d: Min = (%d, %#x), scan (%d, %#x)", n, seed, op, leaf, key, wl, wk)
				}
				k := draw()
				if r.Intn(5) == 0 {
					k = Sentinel
				}
				keys[leaf] = k
				tr.ReplaceMin(k)
				checkTree(t, &tr, keys)
			}
		}
	}
}
