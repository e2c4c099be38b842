package avail

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/minheap"
)

// transition is one queued availability change in the reference order.
type transition struct{ slot, worker int }

func (e transition) key() minheap.Key { return transitionKey(e.slot, e.worker) }

// keyTransition decodes a heap key back into its transition.
func keyTransition(k minheap.Key) transition { return transition{int(k.Hi), int(k.Lo)} }

// checkHeapOrder fails unless no entry orders before its parent.
func checkHeapOrder(t *testing.T, h minheap.Heap) {
	t.Helper()
	for i := 1; i < len(h); i++ {
		if minheap.Less(h[i], h[(i-1)/2]) {
			t.Fatalf("entry %d %+v orders before its parent %+v", i, keyTransition(h[i]), keyTransition(h[(i-1)/2]))
		}
	}
}

// buildHeap heapifies the entries with the tape's transition keys.
func buildHeap(t *testing.T, es []transition) minheap.Heap {
	t.Helper()
	var h minheap.Heap
	for _, e := range es {
		h = append(h, e.key())
	}
	h.Init()
	checkHeapOrder(t, h)
	return h
}

// drainHeap pops every entry, verifying the heap order after each pop, and
// returns the pop sequence.
func drainHeap(t *testing.T, h *minheap.Heap) []transition {
	t.Helper()
	var got []transition
	for len(*h) > 0 {
		got = append(got, keyTransition((*h)[0]))
		h.PopMin()
		checkHeapOrder(t, *h)
	}
	return got
}

// TestTransitionHeapPopOrder heapifies random transitions and checks the
// pop sequence against a sort on (slot, worker) — including batches where
// many workers share the same transition slot, the case whose worker-order
// tie-break keeps event mode's crash stream aligned with slot mode's
// ascending-worker scan.
func TestTransitionHeapPopOrder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		// A few slot values only, so same-slot ties are dense.
		n := 5 + r.Intn(300)
		want := make([]transition, 0, n)
		for k := 0; k < n; k++ {
			want = append(want, transition{slot: r.Intn(8), worker: r.Intn(50)})
		}
		h := buildHeap(t, want)
		sortTransitions(want)
		got := drainHeap(t, &h)
		if len(got) != len(want) {
			t.Fatalf("seed %d: popped %d entries, queued %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pop[%d] = %+v, sorted reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestTransitionHeapInterleaved alternates replace-min with arbitrary keys
// (earlier than the root, equal to it or to other entries) and pops,
// duplicates included, refilling the emptied heap with a fresh heapified
// batch, and checks every removed root is a minimum of the live multiset.
func TestTransitionHeapInterleaved(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		var h minheap.Heap
		live := map[transition]int{} // multiset: duplicates are legal
		random := func() transition { return transition{slot: r.Intn(40), worker: r.Intn(64)} }
		for op := 0; op < 2000; op++ {
			if len(h) == 0 {
				batch := make([]transition, 1+r.Intn(40))
				for i := range batch {
					batch[i] = random()
					live[batch[i]]++
				}
				h = buildHeap(t, batch)
				continue
			}
			got := keyTransition(h[0])
			for e := range live {
				if e.slot < got.slot || (e.slot == got.slot && e.worker < got.worker) {
					t.Fatalf("seed %d op %d: root %+v with smaller live entry %+v", seed, op, got, e)
				}
			}
			if live[got] == 0 {
				t.Fatalf("seed %d op %d: root %+v is not live", seed, op, got)
			}
			if live[got]--; live[got] == 0 {
				delete(live, got)
			}
			if r.Intn(3) == 0 {
				h.PopMin()
			} else {
				e := random()
				h.ReplaceMin(e.key())
				live[e]++
			}
			checkHeapOrder(t, h)
		}
	}
}

// TestTransitionHeapReplaceTop interleaves replace-min and pop-min in the
// tape's access pattern — a logged worker's next transition replaces the
// root, and a worker whose state then holds forever is popped — over dense
// same-slot ties, and checks the full drain order (every popped or replaced
// root, then what remains) against a sort of the same entries on (slot,
// worker). As in the tape, each worker has at most one entry and a
// replacement is strictly later than the root it replaces.
func TestTransitionHeapReplaceTop(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		want := make([]transition, 1+r.Intn(200))
		for w := range want {
			want[w] = transition{slot: r.Intn(6), worker: w}
		}
		h := buildHeap(t, want)
		var removed []transition
		for op := 0; op < 1500 && len(h) > 0; op++ {
			root := keyTransition(h[0])
			removed = append(removed, root)
			if r.Intn(4) == 0 {
				h.PopMin()
			} else {
				// A trajectory's next transition is strictly later.
				e := transition{slot: root.slot + 1 + r.Intn(3), worker: root.worker}
				h.ReplaceMin(e.key())
				want = append(want, e)
			}
			checkHeapOrder(t, h)
		}
		// Each removal took the minimum of the live set and nothing earlier
		// was queued after it, so removals followed by the drain are sorted.
		got := append(removed, drainHeap(t, &h)...)
		sortTransitions(want)
		if len(got) != len(want) {
			t.Fatalf("seed %d: drained %d entries, queued %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: drain[%d] = %+v, sorted reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// sortTransitions is the reference order: entries sorted on (slot, worker),
// spelled out independently of the heap keys.
func sortTransitions(ts []transition) {
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].slot != ts[b].slot {
			return ts[a].slot < ts[b].slot
		}
		return ts[a].worker < ts[b].worker
	})
}
