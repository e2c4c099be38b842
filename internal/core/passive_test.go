package core

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/sim"
)

// scriptedInner is a deterministic inner heuristic recording its calls.
type scriptedInner struct {
	picks []int
	calls int
}

func (s *scriptedInner) Name() string { return "scripted" }
func (s *scriptedInner) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	p := s.picks[s.calls%len(s.picks)]
	s.calls++
	return p
}

func passiveView(states ...avail.State) *sim.View {
	prm := params(5, 1, 1)
	v := &sim.View{Params: prm, Procs: make([]sim.ProcView, len(states))}
	for i, st := range states {
		v.Procs[i] = sim.ProcView{ID: i, W: 1, State: st, Model: reliableModel()}
	}
	v.FillAnalytics()
	return v
}

func TestPassiveKeepsCommitmentWhileUp(t *testing.T) {
	inner := &scriptedInner{picks: []int{1, 0}}
	s := NewPassive(inner)
	v := passiveView(avail.Up, avail.Up)
	rs := freshRound(2)
	ti := sim.TaskInfo{Task: 0}
	if got := s.Pick(v, []int{0, 1}, rs, ti); got != 1 {
		t.Fatalf("first pick %d, want inner's 1", got)
	}
	// Same task next slot: the commitment holds without consulting inner.
	before := inner.calls
	if got := s.Pick(v, []int{0, 1}, rs, ti); got != 1 {
		t.Fatal("commitment not kept")
	}
	if inner.calls != before {
		t.Fatal("inner consulted despite live commitment")
	}
}

func TestPassiveWaitsOutReclaimed(t *testing.T) {
	inner := &scriptedInner{picks: []int{1}}
	s := NewPassive(inner)
	ti := sim.TaskInfo{Task: 0}
	// Commit to processor 1 while it is UP.
	v := passiveView(avail.Up, avail.Up)
	if got := s.Pick(v, []int{0, 1}, freshRound(2), ti); got != 1 {
		t.Fatal("setup pick failed")
	}
	// Processor 1 reclaimed: passive declines rather than moving the task.
	v = passiveView(avail.Up, avail.Reclaimed)
	if got := s.Pick(v, []int{0}, freshRound(2), ti); got != sim.Decline {
		t.Fatalf("pick during reclaim = %d, want Decline", got)
	}
	// Back UP: the commitment resumes.
	v = passiveView(avail.Up, avail.Up)
	if got := s.Pick(v, []int{0, 1}, freshRound(2), ti); got != 1 {
		t.Fatal("commitment lost after reclaim")
	}
}

func TestPassiveRepicksAfterCrash(t *testing.T) {
	inner := &scriptedInner{picks: []int{1, 0}}
	s := NewPassive(inner)
	ti := sim.TaskInfo{Task: 0}
	v := passiveView(avail.Up, avail.Up)
	if got := s.Pick(v, []int{0, 1}, freshRound(2), ti); got != 1 {
		t.Fatal("setup pick failed")
	}
	// Processor 1 crashed: the commitment is void; inner picks 0.
	v = passiveView(avail.Up, avail.Down)
	if got := s.Pick(v, []int{0}, freshRound(2), ti); got != 0 {
		t.Fatalf("post-crash pick = %d, want 0", got)
	}
	// The new commitment sticks.
	v = passiveView(avail.Up, avail.Down)
	before := inner.calls
	if got := s.Pick(v, []int{0}, freshRound(2), ti); got != 0 || inner.calls != before {
		t.Fatal("new commitment not kept")
	}
}

func TestPassiveResetsAcrossIterations(t *testing.T) {
	inner := &scriptedInner{picks: []int{1, 0}}
	s := NewPassive(inner)
	ti := sim.TaskInfo{Task: 0}
	v := passiveView(avail.Up, avail.Up)
	v.Iteration = 0
	if got := s.Pick(v, []int{0, 1}, freshRound(2), ti); got != 1 {
		t.Fatal("iteration-0 pick failed")
	}
	// New iteration: task 0 is a different task; inner is consulted again.
	v2 := passiveView(avail.Up, avail.Up)
	v2.Iteration = 1
	if got := s.Pick(v2, []int{0, 1}, freshRound(2), ti); got != 0 {
		t.Fatalf("iteration-1 pick = %d, want fresh inner pick 0", got)
	}
}

func TestPassiveDelegatesReplicas(t *testing.T) {
	inner := &scriptedInner{picks: []int{0}}
	s := NewPassive(inner)
	v := passiveView(avail.Up, avail.Up)
	ti := sim.TaskInfo{Task: 3, Replica: true}
	if got := s.Pick(v, []int{0, 1}, freshRound(2), ti); got != 0 {
		t.Fatal("replica pick not delegated")
	}
	// Replica picks must not create commitments for the original.
	tiOrig := sim.TaskInfo{Task: 3}
	inner.picks = []int{1}
	inner.calls = 0
	if got := s.Pick(v, []int{0, 1}, freshRound(2), tiOrig); got != 1 {
		t.Fatal("replica pick leaked into original commitment")
	}
}

func TestPassiveName(t *testing.T) {
	if got := NewPassive(NewMCT(false)).Name(); got != "passive-mct" {
		t.Fatalf("name = %q", got)
	}
}

// TestPassiveDropsCommitsAcrossRuns is the regression test for the pooled
// (or registry-shared) reuse leak: a scheduler instance serving a second
// run whose first view has the SAME iteration index as the previous run's
// last-seen one used to keep the stale commit map, silently replaying the
// previous trial's placements. Run boundaries are now detected through
// View.Run (unique per engine run), which the iteration check alone cannot
// see.
func TestPassiveDropsCommitsAcrossRuns(t *testing.T) {
	inner := &scriptedInner{picks: []int{1, 0}}
	s := NewPassive(inner)
	ti := sim.TaskInfo{Task: 0}

	// Run 1 (Run stamp 7), iteration 0: commit to processor 1.
	v := passiveView(avail.Up, avail.Up)
	v.Run, v.Iteration = 7, 0
	if got := s.Pick(v, []int{0, 1}, freshRound(2), ti); got != 1 {
		t.Fatal("run-1 pick failed")
	}

	// Run 2 (Run stamp 8) begins, also at iteration 0. The stale commitment
	// to processor 1 must be gone: the inner heuristic is consulted afresh
	// and its pick (0) wins.
	v2 := passiveView(avail.Up, avail.Up)
	v2.Run, v2.Iteration = 8, 0
	before := inner.calls
	if got := s.Pick(v2, []int{0, 1}, freshRound(2), ti); got != 0 {
		t.Fatalf("run-2 pick = %d, want fresh inner pick 0 (stale commit replayed)", got)
	}
	if inner.calls != before+1 {
		t.Fatal("inner not consulted at the run boundary")
	}
}

// TestPassiveDeclinesWhenCommitIneligible is the regression test for the
// protocol hole: an UP committed processor that is absent from the eligible
// slate (pipeline-full under an engine variant, or an external driver's
// restriction) used to be returned anyway, which the engine rejects as a
// run-aborting protocol violation. Passive must wait (Decline) instead,
// exactly as it does for RECLAIMED commitments.
func TestPassiveDeclinesWhenCommitIneligible(t *testing.T) {
	inner := &scriptedInner{picks: []int{1}}
	s := NewPassive(inner)
	ti := sim.TaskInfo{Task: 0}
	v := passiveView(avail.Up, avail.Up)
	if got := s.Pick(v, []int{0, 1}, freshRound(2), ti); got != 1 {
		t.Fatal("setup pick failed")
	}
	// Processor 1 is still UP but no longer offered.
	if got := s.Pick(v, []int{0}, freshRound(2), ti); got != sim.Decline {
		t.Fatalf("pick with ineligible UP commitment = %d, want Decline", got)
	}
	// Offered again: the commitment resumes without consulting inner.
	before := inner.calls
	if got := s.Pick(v, []int{0, 1}, freshRound(2), ti); got != 1 || inner.calls != before {
		t.Fatal("commitment lost after an ineligible slot")
	}
}

// TestPassivePoolSafety pins the reuse opt-in chain: passive (and
// proactive) report pool safety exactly when their inner heuristic does.
func TestPassivePoolSafety(t *testing.T) {
	if !sim.PoolSafe(NewPassive(NewMCT(false))) {
		t.Fatal("passive over a greedy inner must be pool-safe")
	}
	if !sim.PoolSafe(NewProactive(NewEMCT(false), 1.5)) {
		t.Fatal("proactive over a greedy inner must be pool-safe")
	}
	if sim.PoolSafe(NewPassive(&scriptedInner{picks: []int{0}})) {
		t.Fatal("passive over a non-poolable inner must not claim pool safety")
	}
}
