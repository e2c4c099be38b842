package avail

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/losertree"
)

// transition is one queued availability change in the reference order.
type transition struct{ slot, worker int }

// These tests drive the tape's transition queue — a loser tree whose leaf w
// holds the slot of worker w's next change, Sentinel once it has none — in
// the tape's access pattern, against a sort on (slot, worker).

// buildQueue builds the tree over one pending slot per worker, Sentinel
// where slots[w] < 0.
func buildQueue(slots []int) *losertree.Tree {
	keys := make([]uint64, len(slots))
	for w, s := range slots {
		keys[w] = losertree.Sentinel
		if s >= 0 {
			keys[w] = uint64(s)
		}
	}
	var tr losertree.Tree
	tr.Init(keys)
	return &tr
}

// front returns the queue's next transition, or false once every leaf
// holds the sentinel.
func front(tr *losertree.Tree) (transition, bool) {
	w, k := tr.Min()
	return transition{int(k), w}, k != losertree.Sentinel
}

// drainQueue pops every pending transition and returns the pop sequence.
func drainQueue(tr *losertree.Tree) []transition {
	var got []transition
	for e, ok := front(tr); ok; e, ok = front(tr) {
		got = append(got, e)
		tr.ReplaceMin(losertree.Sentinel)
	}
	return got
}

// TestTransitionHeapPopOrder builds queues over random pending slots and
// checks the pop sequence against a sort on (slot, worker) — with few slot
// values, so many workers share the same transition slot: the case whose
// worker-order tie-break keeps event mode's crash stream aligned with slot
// mode's ascending-worker scan — and with some workers holding nothing.
func TestTransitionHeapPopOrder(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		slots := make([]int, 1+r.Intn(300))
		var want []transition
		for w := range slots {
			slots[w] = r.Intn(9) - 1
			if slots[w] >= 0 {
				want = append(want, transition{slots[w], w})
			}
		}
		sortTransitions(want)
		got := drainQueue(buildQueue(slots))
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

// TestTransitionHeapInterleaved alternates replace-min with arbitrary slots
// (earlier than the minimum, equal to it or to other workers' slots) and
// pops, rebuilding the queue over a fresh batch whenever it empties, and
// checks every removed minimum is the least (slot, worker) still pending.
func TestTransitionHeapInterleaved(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		var tr *losertree.Tree
		var pending []int // per worker, -1 when it holds nothing
		for op := 0; op < 2000; op++ {
			got, ok := transition{}, false
			if tr != nil {
				got, ok = front(tr)
			}
			if !ok {
				pending = make([]int, 1+r.Intn(64))
				for w := range pending {
					pending[w] = r.Intn(41) - 1
				}
				tr = buildQueue(pending)
				continue
			}
			if pending[got.worker] != got.slot {
				t.Fatalf("seed %d op %d: minimum %+v is not pending", seed, op, got)
			}
			for w, s := range pending {
				if s >= 0 && (s < got.slot || (s == got.slot && w < got.worker)) {
					t.Fatalf("seed %d op %d: minimum %+v with smaller pending %+v", seed, op, got, transition{s, w})
				}
			}
			if r.Intn(3) == 0 {
				tr.ReplaceMin(losertree.Sentinel)
				pending[got.worker] = -1
			} else {
				s := r.Intn(40)
				tr.ReplaceMin(uint64(s))
				pending[got.worker] = s
			}
		}
	}
}

// TestTransitionHeapReplaceTop interleaves replace-min and pop in the
// tape's access pattern — a logged worker's next transition replaces the
// minimum, and a worker whose state then holds forever is popped — over
// dense same-slot ties, and checks the full drain order (every removed
// minimum, then what remains) against a sort of the same entries on (slot,
// worker). As in the tape, a replacement is strictly later than the
// minimum it replaces.
func TestTransitionHeapReplaceTop(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		slots := make([]int, 1+r.Intn(200))
		want := make([]transition, len(slots))
		for w := range slots {
			slots[w] = r.Intn(6)
			want[w] = transition{slots[w], w}
		}
		tr := buildQueue(slots)
		var removed []transition
		for op := 0; op < 1500; op++ {
			min, ok := front(tr)
			if !ok {
				break
			}
			removed = append(removed, min)
			if r.Intn(4) == 0 {
				tr.ReplaceMin(losertree.Sentinel)
			} else {
				// A trajectory's next transition is strictly later.
				e := transition{slot: min.slot + 1 + r.Intn(3), worker: min.worker}
				tr.ReplaceMin(uint64(e.slot))
				want = append(want, e)
			}
		}
		// Each removal took the minimum of the pending set and nothing
		// earlier was queued after it, so removals then the drain are sorted.
		got := append(removed, drainQueue(tr)...)
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
// spelled out independently of the tree's keys.
func sortTransitions(ts []transition) {
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].slot != ts[b].slot {
			return ts[a].slot < ts[b].slot
		}
		return ts[a].worker < ts[b].worker
	})
}
