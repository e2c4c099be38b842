package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/rng"
	"repro/internal/sim"
)

// Factory builds a fresh scheduler instance. Heuristics that randomize take
// their stream from r; deterministic heuristics ignore it. A new instance
// must be created per simulation run.
type Factory func(r *rng.PCG) sim.Scheduler

// regMu guards registry. The paper heuristics register at init time, but
// extensions and test doubles may register from arbitrary goroutines (e.g.
// per-sweep registration while another sweep validates names), so every map
// access takes the lock.
var regMu sync.RWMutex

// registry maps heuristic names to factories. Names follow the paper's
// Table 2 spelling in lower case: random, random1..random4 (+"w" variants),
// mct, mct*, emct, emct*, lw, lw*, ud, ud*.
var registry = map[string]Factory{
	"random": func(r *rng.PCG) sim.Scheduler { return NewRandom(r) },

	"mct":   func(*rng.PCG) sim.Scheduler { return NewMCT(false) },
	"mct*":  func(*rng.PCG) sim.Scheduler { return NewMCT(true) },
	"emct":  func(*rng.PCG) sim.Scheduler { return NewEMCT(false) },
	"emct*": func(*rng.PCG) sim.Scheduler { return NewEMCT(true) },
	"lw":    func(*rng.PCG) sim.Scheduler { return NewLW(false) },
	"lw*":   func(*rng.PCG) sim.Scheduler { return NewLW(true) },
	"ud":    func(*rng.PCG) sim.Scheduler { return NewUD(false) },
	"ud*":   func(*rng.PCG) sim.Scheduler { return NewUD(true) },

	// Extensions (not in the paper, excluded from Names()): the "+"
	// variants additionally apply the contention slowdown to the
	// communication remainders inside Delay. Used by ablation studies.
	"mct+":  func(*rng.PCG) sim.Scheduler { return NewGreedy("mct", aggressiveComm) },
	"emct+": func(*rng.PCG) sim.Scheduler { return NewGreedy("emct", aggressiveComm) },
	"lw+":   func(*rng.PCG) sim.Scheduler { return NewGreedy("lw", aggressiveComm) },
	"ud+":   func(*rng.PCG) sim.Scheduler { return NewGreedy("ud", aggressiveComm) },

	// The passive class of Section 6.1 (assign once, re-assign only on
	// crashes), for the ablation quantifying the paper's argument that
	// dynamic re-planning is necessary. Excluded from Names().
	"passive-mct":    func(*rng.PCG) sim.Scheduler { return NewPassive(NewMCT(false)) },
	"passive-emct":   func(*rng.PCG) sim.Scheduler { return NewPassive(NewEMCT(false)) },
	"passive-ud":     func(*rng.PCG) sim.Scheduler { return NewPassive(NewUD(false)) },
	"passive-random": func(r *rng.PCG) sim.Scheduler { return NewPassive(NewRandom(r)) },

	// The proactive class of Section 6.1 (aggressively terminate ongoing
	// work when a much better processor is idle), for the ablation testing
	// the paper's claim that replication subsumes it. Excluded from Names().
	"proactive-emct": func(*rng.PCG) sim.Scheduler { return NewProactive(NewEMCT(false), 1.5) },
	"proactive-mct":  func(*rng.PCG) sim.Scheduler { return NewProactive(NewMCT(false), 1.5) },

	// Risk-averse EMCT (extension): minimize E(CT) + σ(CT), using the
	// closed-form variance of the conditioned completion time.
	"remct": func(*rng.PCG) sim.Scheduler { return NewRiskAverse(1) },

	// Deadline-probability heuristic (extension): maximize the probability
	// of finishing the estimated workload within 1.5× the best candidate's
	// CT, using the full completion-time distribution.
	"deadline": func(*rng.PCG) sim.Scheduler { return NewDeadline(1.5) },

	// Batch disciplines (extension): rigid whole-worker reservations, the
	// baseline of the DFRS comparison (batch.go). Excluded from Names().
	BatchFCFS: func(*rng.PCG) sim.Scheduler { return NewBatch(false) },
	BatchEASY: func(*rng.PCG) sim.Scheduler { return NewBatch(true) },
}

func init() {
	for idx := 1; idx <= 4; idx++ {
		for _, bySpeed := range []bool{false, true} {
			idx, bySpeed := idx, bySpeed
			name := fmt.Sprintf("random%d", idx)
			if bySpeed {
				name += "w"
			}
			registry[name] = func(r *rng.PCG) sim.Scheduler {
				s, err := NewWeightedRandom(idx, bySpeed, r)
				if err != nil {
					panic(err) // unreachable: idx is 1..4 by construction
				}
				return s
			}
		}
	}
}

// Register adds (or replaces) a heuristic factory under the given name,
// making it reachable through New and the sweep API. Paper heuristics are
// pre-registered; Register exists for extensions and test doubles. It is
// safe for concurrent use with Lookup, New, and the sweep API.
func Register(name string, f Factory) error {
	if name == "" || f == nil {
		return fmt.Errorf("core: Register needs a name and a factory")
	}
	regMu.Lock()
	registry[name] = f
	regMu.Unlock()
	return nil
}

// Lookup returns the factory registered under name without instantiating a
// scheduler. It is the cheap existence check sweep validation performs
// before committing to a run. Safe for concurrent use with Register.
func Lookup(name string) (Factory, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown heuristic %q (see core.Names)", name)
	}
	return f, nil
}

// New instantiates the named heuristic.
func New(name string, r *rng.PCG) (sim.Scheduler, error) {
	f, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return f(r), nil
}

// Names lists every registered heuristic in the paper's Table 2 order
// (greedy families first, then the random family).
func Names() []string {
	return []string{
		"emct", "emct*", "mct", "mct*", "ud*", "ud", "lw*", "lw",
		"random1w", "random2w", "random4w", "random3w",
		"random3", "random4", "random1", "random2", "random",
	}
}

// GreedyNames lists the greedy heuristics (the ones Figure 2 plots, plus
// their uncorrected counterparts).
func GreedyNames() []string {
	return []string{"mct", "mct*", "emct", "emct*", "lw", "lw*", "ud", "ud*"}
}

// AllNamesSorted lists every registered name alphabetically (for CLIs).
// Safe for concurrent use with Register.
func AllNamesSorted() []string {
	regMu.RLock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	regMu.RUnlock()
	sort.Strings(out)
	return out
}
