// Package faultinject provides deterministic fault injection for sweep
// crash-safety tests. Every injected fault is a pure function of where the
// work sits in the sweep (chunk, trial) — never of wall time, RNG
// state shared with the simulation, or worker identity — so a fault plan
// produces the same failures for any worker count and on every rerun. That
// determinism is what lets the resume property tests assert bit-identical
// output: the injected faults are part of the reproducible schedule, not
// noise on top of it.
package faultinject

import (
	"errors"
	"fmt"
)

// ErrCommitterCrash marks a sweep abort injected at a chunk-commit boundary
// by Plan.CrashAfterChunks. Tests (and the volabench -crash-after flag)
// match it with errors.Is to distinguish a simulated process death from a
// real failure.
var ErrCommitterCrash = errors.New("faultinject: committer crash injected")

// Plan describes the faults to inject into one sweep run. The zero value
// (and a nil *Plan) injects nothing.
type Plan struct {
	// CrashAfterChunks, when > 0, kills the sweep committer immediately
	// after it has committed exactly that many chunks — after the commit is
	// merged but before any checkpoint of it is written, mimicking a
	// process dying at the worst point of a commit boundary. The sweep
	// returns an error wrapping ErrCommitterCrash.
	CrashAfterChunks int

	// Instance, when non-nil, is consulted before every instance run.
	// Returning a non-nil error makes that instance fail with it instead
	// of running the simulation.
	Instance func(chunk, trial int) error

	// Checkpoint, when non-nil, is consulted before each checkpoint write.
	// seq counts the sweep's checkpoint attempts from 0. Returning a
	// non-nil error makes that write fail with it, exercising the
	// degraded continue-without-checkpoint path.
	Checkpoint func(seq int) error
}

// InstanceFault returns the injected error for one instance, tolerating a
// nil plan or nil hook.
func (p *Plan) InstanceFault(chunk, trial int) error {
	if p == nil || p.Instance == nil {
		return nil
	}
	return p.Instance(chunk, trial)
}

// CheckpointFault returns the injected error for one checkpoint write,
// tolerating a nil plan or nil hook.
func (p *Plan) CheckpointFault(seq int) error {
	if p == nil || p.Checkpoint == nil {
		return nil
	}
	return p.Checkpoint(seq)
}

// PersistentInstanceFault returns an Instance hook that fails exactly one
// (chunk, trial) instance, for exercising the record-and-continue path.
func PersistentInstanceFault(chunk, trial int) func(chunk, trial int) error {
	return func(c, t int) error {
		if c == chunk && t == trial {
			return fmt.Errorf("faultinject: persistent fault (chunk %d, trial %d)", c, t)
		}
		return nil
	}
}

// CheckpointFailures returns a Checkpoint hook that fails every write whose
// sequence number is in seqs, for exercising the degraded
// continue-without-checkpoint path.
func CheckpointFailures(seqs ...int) func(seq int) error {
	bad := make(map[int]bool, len(seqs))
	for _, s := range seqs {
		bad[s] = true
	}
	return func(seq int) error {
		if bad[seq] {
			return fmt.Errorf("faultinject: checkpoint write %d failed", seq)
		}
		return nil
	}
}
