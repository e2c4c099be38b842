package sim

import (
	"math/rand"
	"testing"
)

// trackerModel is the reference the property tests compare against: the raw
// per-task copy counts and completion flags, queried by full scans exactly
// like the pre-incremental scheduler round did.
type trackerModel struct {
	copies    []int
	completed []bool
	copyCap   int
}

func newTrackerModel(m, copyCap int) *trackerModel {
	return &trackerModel{copies: make([]int, m), completed: make([]bool, m), copyCap: copyCap}
}

// pendingScan returns the ascending incomplete zero-copy tasks.
func (md *trackerModel) pendingScan() []int {
	var out []int
	for t := range md.copies {
		if !md.completed[t] && md.copies[t] == 0 {
			out = append(out, t)
		}
	}
	return out
}

// leastCoveredScan is the reference (fewest copies, lowest ID) pick over
// tasks with at least one copy and below the cap.
func (md *trackerModel) leastCoveredScan() (task, copies int) {
	best, bestCopies := noTask, md.copyCap
	for t := range md.copies {
		if md.completed[t] {
			continue
		}
		if c := md.copies[t]; c >= 1 && c < bestCopies {
			best, bestCopies = t, c
		}
	}
	return best, bestCopies
}

// verifyTracker checks the tracker's pending iteration order and its
// least-covered pick against the reference scans.
func verifyTracker(t *testing.T, trk *taskTracker, md *trackerModel) {
	t.Helper()
	want := md.pendingScan()
	got = got[:0]
	for x := trk.pending.min(); x != noTask; x = trk.pending.next(x) {
		got = append(got, x)
	}
	if len(got) != len(want) {
		t.Fatalf("pending iteration: got %d tasks, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("pending iteration[%d]: got task %d, want %d", i, got[i], want[i])
		}
	}
	wt, wc := md.leastCoveredScan()
	gt, gc := trk.leastCovered(md.copyCap)
	if gt != wt || gc != wc {
		t.Fatalf("leastCovered: got (%d, %d), want (%d, %d)", gt, gc, wt, wc)
	}
}

// got is verifyTracker's reusable scratch (kept package-level so the large-m
// property test does not reallocate it on every verification pass).
var got []int

// gain mirrors engine.taskGainedCopy against the model.
func gain(trk *taskTracker, md *trackerModel, t int) {
	if md.copies[t] == 0 {
		trk.pending.remove(t)
	} else {
		trk.bucketRemove(t)
	}
	md.copies[t]++
	trk.bucketAdd(t, md.copies[t])
}

// lose mirrors engine.taskLostCopy against the model.
func lose(trk *taskTracker, md *trackerModel, t int) {
	md.copies[t]--
	if md.completed[t] {
		return
	}
	trk.bucketRemove(t)
	if md.copies[t] == 0 {
		trk.pending.add(t)
	} else {
		trk.bucketAdd(t, md.copies[t])
	}
}

// complete mirrors finishSlot's completion bookkeeping: the finishing copy is
// consumed, the task leaves every index, and the sibling copies are dropped
// without tracker calls (the task is already out of every scheduler index).
func complete(trk *taskTracker, md *trackerModel, t int) {
	md.copies[t]--
	md.completed[t] = true
	trk.remaining--
	trk.bucketRemove(t)
	md.copies[t] = 0
}

// runTrackerProperty drives random legal mutation sequences (the exact call
// patterns of taskGainedCopy / taskLostCopy / completion, plus the
// replication round's planned-copy overlay) and checks the tracker against
// the reference scans every checkEvery ops. This is the order-equivalence
// property test for the (fewest copies, lowest ID) contract, and — at
// m = 10k — the scale the intrusive sorted lists' positional walks degraded
// on before they were replaced.
func runTrackerProperty(t *testing.T, m, copyCap, ops, checkEvery int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	var trk taskTracker
	trk.reset(m, copyCap)
	md := newTrackerModel(m, copyCap)

	withCopies := func(below int) int { // random incomplete task with 1 <= copies < below
		start := r.Intn(m)
		for i := 0; i < m; i++ {
			t := (start + i) % m
			if !md.completed[t] && md.copies[t] >= 1 && md.copies[t] < below {
				return t
			}
		}
		return noTask
	}
	for op := 0; op < ops; op++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3: // bind an original
			if p := trk.pending.min(); p != noTask {
				// Binding follows pick order: usually the head, sometimes a
				// later pending task (schedulers are free to pick any).
				steps := r.Intn(3)
				for steps > 0 && trk.pending.next(p) != noTask {
					p = trk.pending.next(p)
					steps--
				}
				gain(&trk, md, p)
			}
		case 4, 5: // bind a replica on the least-covered task
			if t, _ := trk.leastCovered(copyCap); t != noTask {
				gain(&trk, md, t)
			}
		case 6, 7: // crash/cancel one copy
			if t := withCopies(copyCap + 1); t != noTask {
				lose(&trk, md, t)
			}
		case 8: // complete a task
			if t := withCopies(copyCap + 1); t != noTask {
				complete(&trk, md, t)
			}
		case 9: // a replication round's overlay: plan, re-key, undo
			if p := trk.pending.min(); p != noTask {
				trk.bucketAdd(p, 1) // planned original: 0 live + 1 planned
				if t, c := trk.leastCovered(copyCap); t != noTask && c+1 < copyCap+1 {
					trk.bucketMove(t, c+1) // planned replica
					trk.bucketMove(t, c)   // round over: undo
				}
				trk.bucketRemove(p) // round over: undo the overlay
			}
		}
		if trk.remaining == 0 {
			trk.reset(m, copyCap)
			md = newTrackerModel(m, copyCap)
		}
		if op%checkEvery == 0 {
			verifyTracker(t, &trk, md)
		}
	}
	verifyTracker(t, &trk, md)
}

// TestTrackerMatchesReferenceScan is the paper-scale property test: every
// pending-iteration order and least-covered pick matches the full scans.
func TestTrackerMatchesReferenceScan(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		runTrackerProperty(t, 40, 3, 4000, 1, seed)
	}
	runTrackerProperty(t, 1, 2, 200, 1, 99)  // single task
	runTrackerProperty(t, 7, 1, 500, 1, 100) // copyCap 1: replication disabled
}

// TestTrackerMatchesReferenceScanLarge is the volunteer-grid-scale stress
// test (satellite of the large-P PR): m = 10k tasks through the same
// property, which is where positional list walks degraded toward O(m) per
// mutation before the tracker moved to hierarchical bitsets.
func TestTrackerMatchesReferenceScanLarge(t *testing.T) {
	runTrackerProperty(t, 10_000, 3, 3000, 250, 7)
}

// BenchmarkTrackerPendingChurn measures one bind+lose round trip through the
// pending index at m = 10k: the lose path re-inserts the task at its sorted
// position, which is the walk that degraded toward O(m) with the intrusive
// sorted list. The engine's bound-chain index shares the same structure and
// the same fix.
func BenchmarkTrackerPendingChurn(b *testing.B) {
	const m = 10_000
	var trk taskTracker
	trk.reset(m, 3)
	md := newTrackerModel(m, 3)
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := r.Intn(m)
		gain(&trk, md, t) // leaves pending, enters bucket 1
		lose(&trk, md, t) // re-enters pending at its sorted position
	}
}

// BenchmarkTrackerBucketChurn measures bucket re-keying with every task
// sharing one bucket — the worst case for the sorted-list walk.
func BenchmarkTrackerBucketChurn(b *testing.B) {
	const m = 10_000
	var trk taskTracker
	trk.reset(m, 4)
	md := newTrackerModel(m, 4)
	for t := 0; t < m; t++ {
		gain(&trk, md, t) // all tasks in bucket 1
	}
	r := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := r.Intn(m)
		trk.bucketMove(t, 2)
		trk.bucketMove(t, 1)
	}
}
