package faultinject

import (
	"errors"
	"testing"
)

// TestNilPlanInjectsNothing pins the hot-path contract: a nil plan (the
// production default) injects no faults.
func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if err := p.InstanceFault(3, 1, 0); err != nil {
		t.Fatalf("nil plan injected instance fault: %v", err)
	}
	if err := p.CheckpointFault(0); err != nil {
		t.Fatalf("nil plan injected checkpoint fault: %v", err)
	}
}

// TestTransientFaultsDeterministic pins that the fault verdict for an
// instance depends only on (seed, chunk, trial) — same answer on every
// call, in any order, which is what makes fault plans worker-count safe.
func TestTransientFaultsDeterministic(t *testing.T) {
	a := TransientInstanceFaults(42, 0.5, 2)
	b := TransientInstanceFaults(42, 0.5, 2)
	for chunk := 0; chunk < 20; chunk++ {
		for trial := 0; trial < 3; trial++ {
			for attempt := 0; attempt < 4; attempt++ {
				ea := a(chunk, trial, attempt)
				eb := b(chunk, trial, attempt)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("verdict not deterministic at (%d,%d,%d): %v vs %v", chunk, trial, attempt, ea, eb)
				}
			}
		}
	}
}

// TestTransientFaultsClearAfterBudget pins the transient shape: an instance
// that fails attempt 0 must succeed from attempt `failures` on, so a retry
// budget >= failures always recovers it.
func TestTransientFaultsClearAfterBudget(t *testing.T) {
	const failures = 2
	hook := TransientInstanceFaults(7, 0.9, failures)
	faulted := 0
	for chunk := 0; chunk < 50; chunk++ {
		if hook(chunk, 0, 0) == nil {
			continue
		}
		faulted++
		for attempt := 0; attempt < failures; attempt++ {
			if hook(chunk, 0, attempt) == nil {
				t.Fatalf("chunk %d recovered early at attempt %d", chunk, attempt)
			}
		}
		if err := hook(chunk, 0, failures); err != nil {
			t.Fatalf("chunk %d still failing past its budget: %v", chunk, err)
		}
	}
	if faulted == 0 {
		t.Fatal("rate 0.9 over 50 chunks injected zero faults")
	}
}

// TestTransientFaultsRateZeroAndOne pins the rate extremes.
func TestTransientFaultsRateZeroAndOne(t *testing.T) {
	never := TransientInstanceFaults(1, 0, 1)
	always := TransientInstanceFaults(1, 1.0, 1)
	for chunk := 0; chunk < 20; chunk++ {
		if err := never(chunk, 0, 0); err != nil {
			t.Fatalf("rate 0 injected a fault: %v", err)
		}
		if always(chunk, 0, 0) == nil {
			t.Fatalf("rate 1 skipped chunk %d", chunk)
		}
	}
}

// TestPersistentInstanceFault pins that exactly the chosen instance fails,
// at every attempt.
func TestPersistentInstanceFault(t *testing.T) {
	hook := PersistentInstanceFault(3, 1)
	for attempt := 0; attempt < 5; attempt++ {
		if hook(3, 1, attempt) == nil {
			t.Fatalf("target instance recovered at attempt %d", attempt)
		}
	}
	if err := hook(3, 0, 0); err != nil {
		t.Fatalf("non-target trial faulted: %v", err)
	}
	if err := hook(2, 1, 0); err != nil {
		t.Fatalf("non-target chunk faulted: %v", err)
	}
}

// TestCheckpointFailures pins the sequence-selective checkpoint fault hook.
func TestCheckpointFailures(t *testing.T) {
	hook := CheckpointFailures(0, 2)
	for seq, wantFail := range map[int]bool{0: true, 1: false, 2: true, 3: false} {
		if got := hook(seq) != nil; got != wantFail {
			t.Fatalf("seq %d: fail=%v, want %v", seq, got, wantFail)
		}
	}
}

// TestPlanHooks pins the nil-tolerant accessor plumbing on a populated plan.
func TestPlanHooks(t *testing.T) {
	p := &Plan{
		CrashAfterChunks: 3,
		Instance:         PersistentInstanceFault(1, 0),
		Checkpoint:       CheckpointFailures(1),
	}
	if p.InstanceFault(1, 0, 0) == nil {
		t.Fatal("instance hook not consulted")
	}
	if p.CheckpointFault(1) == nil {
		t.Fatal("checkpoint hook not consulted")
	}
	if !errors.Is(ErrCommitterCrash, ErrCommitterCrash) {
		t.Fatal("sentinel lost identity")
	}
}
