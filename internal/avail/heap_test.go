package avail

import (
	"math/rand"
	"sort"
	"testing"
)

// drainHeap pops every entry, verifying the heap invariant never yields an
// out-of-order pair, and returns the pop sequence.
func drainHeap(t *testing.T, h *transitionHeap) []transition {
	t.Helper()
	var got []transition
	for len(h.q) > 0 {
		root, ok := h.min()
		if !ok || root != h.q[0] {
			t.Fatalf("min() = (%+v, %v), root %+v", root, ok, h.q[0])
		}
		if popped := h.pop(); popped != root {
			t.Fatalf("pop() = %+v, min() reported %+v", popped, root)
		}
		got = append(got, root)
	}
	if _, ok := h.min(); ok {
		t.Fatalf("min() reports an entry on an empty heap")
	}
	return got
}

// TestTransitionHeapPopOrder drives random push/pop interleavings and checks
// the pop sequence against a stable sort reference on (slot, worker) —
// including batches where many workers share the same transition slot, the
// case whose worker-order tie-break keeps event mode's crash stream aligned
// with slot mode's ascending-worker scan.
func TestTransitionHeapPopOrder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		var h transitionHeap
		h.reset()
		// A few slot values only, so same-slot ties are dense.
		n := 5 + r.Intn(300)
		want := make([]transition, 0, n)
		for k := 0; k < n; k++ {
			e := transition{slot: r.Intn(8), worker: r.Intn(50)}
			h.push(e)
			want = append(want, e)
		}
		sortTransitions(want)
		got := drainHeap(t, &h)
		if len(got) != len(want) {
			t.Fatalf("seed %d: popped %d entries, pushed %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: pop[%d] = %+v, sorted reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestTransitionHeapInterleaved alternates pushes and pops, duplicates
// included, and checks every pop is the minimum of the live set.
func TestTransitionHeapInterleaved(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		var h transitionHeap
		h.reset()
		live := map[transition]int{} // multiset: duplicates are legal
		for op := 0; op < 2000; op++ {
			if len(h.q) == 0 || r.Intn(3) != 0 {
				e := transition{slot: r.Intn(40), worker: r.Intn(64)}
				h.push(e)
				live[e]++
				continue
			}
			got := h.pop()
			for e := range live {
				if e.slot < got.slot || (e.slot == got.slot && e.worker < got.worker) {
					t.Fatalf("seed %d op %d: popped %+v with smaller live entry %+v", seed, op, got, e)
				}
			}
			if live[got] == 0 {
				t.Fatalf("seed %d op %d: popped %+v which is not live", seed, op, got)
			}
			live[got]--
			if live[got] == 0 {
				delete(live, got)
			}
		}
	}
}

// TestTransitionHeapReplaceTop interleaves push, pop and replace-top — the
// tape's access pattern: a logged worker's next transition replaces the
// root, and a worker whose state then holds forever is popped — over dense
// same-slot ties, and checks the full drain order (every popped or replaced
// root, then what remains) against a sort of the same entries on (slot,
// worker). As in the tape, nothing is queued before the last removed
// root — a replacement is strictly later than the root it replaces, a push
// no earlier than the clock — and each worker has at most one entry.
func TestTransitionHeapReplaceTop(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		var h transitionHeap
		h.reset()
		var removed, want []transition
		next := 0  // worker IDs handed out so far
		clock := 0 // slot of the last removed root
		for op := 0; op < 1500; op++ {
			root, ok := h.min()
			if ok {
				clock = root.slot
			}
			switch k := r.Intn(4); {
			case !ok || k == 0:
				// A fresh worker ID orders after every removed root of the
				// same slot.
				e := transition{slot: clock + r.Intn(6), worker: next}
				next++
				h.push(e)
				want = append(want, e)
			case k == 1:
				if got := h.pop(); got != root {
					t.Fatalf("seed %d op %d: pop() = %+v, min() reported %+v", seed, op, got, root)
				}
				removed = append(removed, root)
			default:
				// A trajectory's next transition is strictly later.
				e := transition{slot: root.slot + 1 + r.Intn(3), worker: root.worker}
				h.replaceTop(e)
				removed = append(removed, root)
				want = append(want, e)
			}
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
// spelled out independently of transition.less.
func sortTransitions(ts []transition) {
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].slot != ts[b].slot {
			return ts[a].slot < ts[b].slot
		}
		return ts[a].worker < ts[b].worker
	})
}
