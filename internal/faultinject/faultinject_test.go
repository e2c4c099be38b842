package faultinject

import (
	"errors"
	"testing"
)

// TestNilPlanInjectsNothing pins the hot-path contract: a nil plan (the
// production default) injects no faults.
func TestNilPlanInjectsNothing(t *testing.T) {
	var p *Plan
	if err := p.InstanceFault(3, 1); err != nil {
		t.Fatalf("nil plan injected instance fault: %v", err)
	}
	if err := p.CheckpointFault(0); err != nil {
		t.Fatalf("nil plan injected checkpoint fault: %v", err)
	}
}

// TestPersistentInstanceFault pins that exactly the chosen instance fails,
// on every call.
func TestPersistentInstanceFault(t *testing.T) {
	hook := PersistentInstanceFault(3, 1)
	for call := 0; call < 5; call++ {
		if hook(3, 1) == nil {
			t.Fatalf("target instance recovered at call %d", call)
		}
	}
	if err := hook(3, 0); err != nil {
		t.Fatalf("non-target trial faulted: %v", err)
	}
	if err := hook(2, 1); err != nil {
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
	if p.InstanceFault(1, 0) == nil {
		t.Fatal("instance hook not consulted")
	}
	if p.CheckpointFault(1) == nil {
		t.Fatal("checkpoint hook not consulted")
	}
	if !errors.Is(ErrCommitterCrash, ErrCommitterCrash) {
		t.Fatal("sentinel lost identity")
	}
}
