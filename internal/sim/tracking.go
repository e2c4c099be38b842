package sim

// This file holds the engine's incremental task indexes. The scheduler round
// used to recount and re-scan the whole task table every slot — O(m) for the
// remaining-task count, O(m) for the originals loop, and O(m) *per pick* in
// the replication loop. taskTracker shifts that cost to the mutation sites
// (bind, completion, crash, cancellation, barrier), so a slot pays in
// proportion to what actually changed.

// noTask marks an absent task (empty index, unbucketed).
const noTask = -1

// taskTracker indexes the task table for the scheduler round:
//
//   - remaining is the number of incomplete tasks, decremented at
//     completion instead of recounted per slot. It bounds the scheduler
//     round and makes the iteration-barrier check O(1).
//   - pending holds the unbegun originals — incomplete tasks with no live
//     copy — which is exactly the set the originals loop plans for, iterated
//     in ascending task order.
//   - The replication buckets hold the incomplete tasks with >= 1 live copy
//     (plus, during a round, this round's planned copies), bucketed by copy
//     count. The least-covered pick is the minimum of the first non-empty
//     bucket: O(copyCap) bucket probes, with the reference scan's (fewest
//     copies, lowest ID) order preserved exactly.
//
// Every index is a hierarchical bitset (idSet), so membership updates are
// O(1) and ascending iteration is O(members) — an earlier revision used
// intrusive sorted linked lists, whose insertions walked to their positions
// and degraded toward O(m) per mutation at volunteer-grid scale (pinned by
// BenchmarkTrackerPendingChurn and the order-equivalence property tests in
// tracking_test.go). Steady-state maintenance allocates nothing.
type taskTracker struct {
	remaining int

	pending idSet

	// bucketOf[t] is t's current bucket (its copy count, live + any round
	// overlay), or noTask when it is in none.
	bucketOf []int
	buckets  []idSet
}

// reset re-indexes a fresh iteration: all m tasks incomplete and pending, no
// bucket occupied. Buffers are grown once and reused afterwards.
func (k *taskTracker) reset(m, copyCap int) {
	if cap(k.bucketOf) < m {
		k.bucketOf = make([]int, m)
	}
	k.bucketOf = k.bucketOf[:m]
	// Buckets 1..copyCap are used (a gain or overlay can re-key a task up to
	// the cap); index 0 stays empty.
	if len(k.buckets) < copyCap+1 {
		k.buckets = append(k.buckets, make([]idSet, copyCap+1-len(k.buckets))...)
	}
	for c := 1; c <= copyCap; c++ {
		k.buckets[c].reset(m)
	}
	k.pending.fill(m)
	k.remaining = m
	for t := 0; t < m; t++ {
		k.bucketOf[t] = noTask
	}
}

// bucketAdd inserts t into bucket c.
func (k *taskTracker) bucketAdd(t, c int) {
	k.buckets[c].add(t)
	k.bucketOf[t] = c
}

// bucketRemove removes t from its current bucket.
func (k *taskTracker) bucketRemove(t int) {
	k.buckets[k.bucketOf[t]].remove(t)
	k.bucketOf[t] = noTask
}

// bucketMove re-keys t to bucket c.
func (k *taskTracker) bucketMove(t, c int) {
	k.bucketRemove(t)
	k.bucketAdd(t, c)
}

// leastCovered returns the lowest-ID task in the lowest non-empty bucket
// below copyCap — the replication loop's "fewest copies first, lowest task
// ID on ties" pick — or (noTask, copyCap) when no task is replicable.
func (k *taskTracker) leastCovered(copyCap int) (task, copies int) {
	for c := 1; c < copyCap; c++ {
		if t := k.buckets[c].min(); t != noTask {
			return t, c
		}
	}
	return noTask, copyCap
}
