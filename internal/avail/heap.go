package avail

// transitionHeap is a binary min-heap of pending availability transitions
// ordered by (slot, worker). Same-slot entries pop in ascending worker
// order, so simultaneous transitions always apply in the same order and
// crash event streams stay bit-identical across modes on identical
// trajectories. Sifts move a hole, writing each displaced entry once.
type transitionHeap struct{ q []transition }

// transition is one queued availability change: worker enters its pending
// state at slot.
type transition struct{ slot, worker int }

func (a transition) less(b transition) bool {
	return a.slot < b.slot || (a.slot == b.slot && a.worker < b.worker)
}

func (h *transitionHeap) reset() { h.q = h.q[:0] }

func (h *transitionHeap) push(t transition) {
	h.q = append(h.q, t)
	i := len(h.q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !t.less(h.q[parent]) {
			break
		}
		h.q[i] = h.q[parent]
		i = parent
	}
	h.q[i] = t
}

// min returns the earliest queued transition.
func (h *transitionHeap) min() (transition, bool) {
	if len(h.q) == 0 {
		return transition{}, false
	}
	return h.q[0], true
}

// pop removes and returns the root entry.
func (h *transitionHeap) pop() transition {
	root, last := h.q[0], h.q[len(h.q)-1]
	h.q = h.q[:len(h.q)-1]
	if len(h.q) > 0 {
		h.replaceTop(last)
	}
	return root
}

// replaceTop replaces the root entry with t and sifts it down as a hole:
// one sift where a pop followed by a push would take two.
func (h *transitionHeap) replaceTop(t transition) {
	n := len(h.q)
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && h.q[right].less(h.q[child]) {
			child = right
		}
		if !h.q[child].less(t) {
			break
		}
		h.q[i] = h.q[child]
		i = child
	}
	h.q[i] = t
}
