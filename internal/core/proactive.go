package core

import (
	"repro/internal/avail"
	"repro/internal/sim"
)

// proactiveSched realizes the paper's third heuristic class (Section 6.1):
// a scheduler "allowing for the possibility of aggressively terminating
// ongoing tasks". The paper argues this mainly matters when the last tasks
// of an iteration sit on slow processors and m is small, and opts for
// replication instead; implementing the class lets the ablation benchmarks
// test that argument.
//
// Placement follows EMCT. Cancellation rule, evaluated every slot (see Cancel):
// a busy processor's pipeline is aborted when the expected time for it to
// finish its begun work exceeds `factor` times the expected time a currently
// idle UP processor would need to redo that work from scratch. The factor
// (> 1) provides hysteresis against cancellation thrash.
type proactiveSched struct {
	sim.Scheduler
	factor float64
}

// cancellingScheduler is the method set of a proactive wrapper without
// SkipPicks.
type cancellingScheduler interface {
	sim.Scheduler
	sim.Poolable
	sim.Canceller
}

// proactiveFullRounds wraps a proactiveSched whose inner heuristic does not
// implement sim.PickSkipper. Embedding the interface exposes everything but
// SkipPicks, so the engine consults the inner heuristic on every pick.
type proactiveFullRounds struct{ cancellingScheduler }

// NewProactive wraps an inner heuristic with proactive cancellation.
// factor > 1 controls how much better the alternative must be; 1.5 is a
// reasonable default. The wrapper implements sim.PickSkipper exactly when
// the inner heuristic does.
func NewProactive(inner sim.Scheduler, factor float64) sim.Scheduler {
	if factor < 1 {
		factor = 1
	}
	s := &proactiveSched{Scheduler: inner, factor: factor}
	if _, ok := inner.(sim.PickSkipper); !ok {
		return proactiveFullRounds{s}
	}
	return s
}

// Name implements sim.Scheduler.
func (s *proactiveSched) Name() string { return "proactive-" + s.Scheduler.Name() }

// PoolSafe implements sim.Poolable: the wrapper itself is stateless, so
// reuse is safe exactly when the inner heuristic's reuse is. (Embedding
// does not promote Poolable — it is not part of the Scheduler interface —
// hence the explicit delegation.)
func (s *proactiveSched) PoolSafe() bool { return sim.PoolSafe(s.Scheduler) }

// SkipPicks implements sim.PickSkipper by delegating to the inner heuristic
// (NewProactive hides this method when the inner one lacks it). Embedding
// does not promote it, as with PoolSafe. Cancel runs before the round's
// originals, so an early stop skips no cancellation.
func (s *proactiveSched) SkipPicks(v *sim.View, eligible []int, rs *sim.RoundState, n int) {
	s.Scheduler.(sim.PickSkipper).SkipPicks(v, eligible, rs, n)
}

// Cancel implements sim.Canceller.
func (s *proactiveSched) Cancel(v *sim.View) []int {
	// Expected fresh-start completion on the best idle UP processor.
	bestAlt, haveAlt := 0.0, false
	for i := range v.Procs {
		pv := &v.Procs[i]
		if pv.State != avail.Up || pv.Busy() {
			continue
		}
		alt := pv.Analytics.ExpectedSlots(float64(CT(pv, 1, v.Params.Tdata)))
		if !haveAlt || alt < bestAlt {
			bestAlt, haveAlt = alt, true
		}
	}
	if !haveAlt {
		return nil
	}
	var cancels []int
	// One cancellation per slot keeps the rule conservative: the freed task
	// re-enters this round's assignment and claims the idle processor.
	worstIdx, worstRem := -1, 0.0
	for i := range v.Procs {
		pv := &v.Procs[i]
		if !pv.Busy() || pv.State == avail.Down {
			continue
		}
		rem := pv.Analytics.ExpectedSlots(float64(Delay(pv)))
		if pv.State == avail.Reclaimed {
			// Add the expected remainder of the current RECLAIMED sojourn.
			prr := pv.Model.P(avail.Reclaimed, avail.Reclaimed)
			if prr < 1 {
				rem += 1 / (1 - prr)
			}
		}
		if rem > s.factor*bestAlt && rem > worstRem {
			worstIdx, worstRem = i, rem
		}
	}
	if worstIdx >= 0 {
		cancels = append(cancels, worstIdx)
	}
	return cancels
}
