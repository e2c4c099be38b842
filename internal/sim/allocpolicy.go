package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// This file defines the moldable-application extension of the engine: an
// AllocationPolicy decides, at every iteration boundary, how many tasks the
// next iteration runs. The paper fixes the application shape at m tasks per
// iteration forever; the related work shows the interesting regime is
// moldable — ReSHAPE resizes homogeneous iterative applications between
// iterations, and QCG-PilotJob's iteration resource schedulers
// (maximum-iters, split-into) choose each iteration's parallelism from the
// resources currently available. The engine already maintains the UP/idle
// worker counts incrementally, so these policies read them for free.

// IterationInfo summarizes one completed iteration for the allocation
// policy. For the run's very first decision (nothing has completed yet)
// Iteration is -1 and the other fields are zero; stateful policies use that
// sentinel to detect the run boundary and reset themselves, which is what
// makes instances safely reusable across pooled runs.
type IterationInfo struct {
	// Iteration is the index of the completed iteration, or -1 before the
	// first iteration starts.
	Iteration int
	// Tasks is the number of tasks that iteration ran.
	Tasks int
	// Slots is the number of slots the iteration took (barrier to barrier).
	Slots int
}

// AllocationPolicy decides the tasks-per-iteration count of a moldable
// application. It sits alongside Scheduler in the engine's configuration and
// sees the same View: TasksFor is consulted once per iteration, before the
// iteration's first scheduling round. Iteration 0 is decided when the run
// starts, once the slot-0 worker states are applied; every later one at the
// barrier that completes its predecessor, before — in event mode — the
// quiet-span check can read the pending set. v reflects the worker states
// at decision time and prev the iteration that just completed. The returned
// count is clamped to [1, MaxIterTasks].
//
// Policies must be deterministic: the same sequence of views and iteration
// summaries must yield the same counts, or the golden digests and
// worker-count determinism break.
type AllocationPolicy interface {
	// Name returns the policy's canonical spec string (parseable by
	// ParseAllocPolicy), e.g. "fixed" or "split-into:4".
	Name() string
	// TasksFor returns the task count for iteration v.Iteration.
	TasksFor(v *View, prev IterationInfo) int
}

// MaxIterTasks caps a policy's per-iteration task count, bounding a runaway
// policy before it can exhaust memory growing the task tables.
const MaxIterTasks = 1 << 20

// clampIterTasks applies the engine's policy-output contract.
func clampIterTasks(n int) int {
	if n < 1 {
		return 1
	}
	if n > MaxIterTasks {
		return MaxIterTasks
	}
	return n
}

// fixedAlloc reproduces the paper's rigid model: every iteration runs
// Params.M tasks. With this policy the engine's behaviour is identical to
// running with no policy at all (the equivalence tests pin it), which makes
// it the bridge between the fixed-n goldens and the moldable family.
type fixedAlloc struct{}

func (fixedAlloc) Name() string                          { return "fixed" }
func (fixedAlloc) TasksFor(v *View, _ IterationInfo) int { return v.Params.M }

// maximumItersAlloc is QCG-PilotJob's maximum-iters resource scheduler: each
// iteration claims everything currently available — one task per UP worker.
// Under replication the engine may still replicate (UP workers can exceed
// the remaining count mid-iteration as workers recover).
type maximumItersAlloc struct{}

func (maximumItersAlloc) Name() string { return "maximum-iters" }
func (maximumItersAlloc) TasksFor(v *View, _ IterationInfo) int {
	return clampIterTasks(v.UpWorkers)
}

// splitIntoAlloc is QCG-PilotJob's split-into resource scheduler: the
// available resources are divided into parts equal shares and one share is
// claimed per iteration — ceil(UP/parts) tasks.
type splitIntoAlloc struct{ parts int }

func (a splitIntoAlloc) Name() string { return fmt.Sprintf("split-into:%d", a.parts) }
func (a splitIntoAlloc) TasksFor(v *View, _ IterationInfo) int {
	return clampIterTasks((v.UpWorkers + a.parts - 1) / a.parts)
}

// reshapeAlloc adapts the iteration size ReSHAPE-style: starting from
// Params.M, it moves by a bounded step between iterations, keeping direction
// while the observed per-task iteration time improves and reversing when it
// regresses. State resets whenever a run's first decision comes in
// (prev.Iteration < 0), so one instance serves many pooled runs.
type reshapeAlloc struct {
	step int
	// run state
	n       int
	dir     int
	prevPer float64
	havePer bool
}

func (a *reshapeAlloc) Name() string { return fmt.Sprintf("reshape:%d", a.step) }

func (a *reshapeAlloc) TasksFor(v *View, prev IterationInfo) int {
	if prev.Iteration < 0 {
		a.n = v.Params.M
		a.dir = 1
		a.havePer = false
		return clampIterTasks(a.n)
	}
	per := float64(prev.Slots) / float64(prev.Tasks)
	if a.havePer && per > a.prevPer {
		a.dir = -a.dir // regressed: probe the other direction
	}
	a.prevPer, a.havePer = per, true
	a.n += a.dir * a.step
	// Keep the size within a bounded band around the application's natural
	// shape so one noisy availability stretch cannot walk the count away.
	lo, hi := 1, 4*v.Params.M
	if a.n < lo {
		a.n, a.dir = lo, 1
	}
	if a.n > hi {
		a.n, a.dir = hi, -1
	}
	return clampIterTasks(a.n)
}

// Default tuning constants for the parameterized policy specs.
const (
	defaultSplitParts  = 2
	defaultReshapeStep = 2
)

// AllocPolicySpecs lists the accepted policy spec forms, for usage text.
func AllocPolicySpecs() []string {
	return []string{"fixed", "maximum-iters", "split-into[:parts]", "reshape[:step]"}
}

// ParseAllocPolicy builds an allocation policy from its spec string:
//
//	fixed              Params.M tasks every iteration (the paper's model)
//	maximum-iters      one task per currently-UP worker
//	split-into[:k]     ceil(UP/k) tasks (default k=2)
//	reshape[:s]        ReSHAPE-style bounded step s around Params.M (default 2)
//
// Each call returns a fresh instance (reshape is stateful), safe to use on
// one goroutine at a time.
func ParseAllocPolicy(spec string) (AllocationPolicy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	argVal := func(what string, dflt int) (int, error) {
		if !hasArg {
			return dflt, nil
		}
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 {
			return 0, fmt.Errorf("sim: alloc policy %q: %s must be a positive integer", spec, what)
		}
		return v, nil
	}
	switch name {
	case "fixed":
		if hasArg {
			return nil, fmt.Errorf("sim: alloc policy %q takes no argument", spec)
		}
		return fixedAlloc{}, nil
	case "maximum-iters":
		if hasArg {
			return nil, fmt.Errorf("sim: alloc policy %q takes no argument", spec)
		}
		return maximumItersAlloc{}, nil
	case "split-into":
		parts, err := argVal("parts", defaultSplitParts)
		if err != nil {
			return nil, err
		}
		return splitIntoAlloc{parts: parts}, nil
	case "reshape":
		step, err := argVal("step", defaultReshapeStep)
		if err != nil {
			return nil, err
		}
		return &reshapeAlloc{step: step}, nil
	default:
		return nil, fmt.Errorf("sim: unknown alloc policy %q (want one of %s)",
			spec, strings.Join(AllocPolicySpecs(), ", "))
	}
}
