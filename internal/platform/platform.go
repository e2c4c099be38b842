// Package platform describes the static part of the execution environment of
// Section 3: the volatile processors with their speeds and availability
// models, and the application/communication parameters (m, Tprog, Tdata,
// ncom) of the bounded multi-port model.
package platform

import (
	"fmt"

	"repro/internal/avail"
	"repro/internal/rng"
)

// Processor is the static description of one volatile worker.
type Processor struct {
	// ID indexes the processor within its platform (0-based; the paper's
	// P_{ID+1}).
	ID int
	// W is w_q: the number of UP slots needed to compute one task.
	W int
	// Avail is the 3-state Markov availability model the master believes
	// this processor follows. Informed heuristics (EMCT, LW, UD, weighted
	// randoms) read their probabilities from here. For trace-driven or
	// semi-Markov experiments this is the master's (possibly wrong) belief
	// while the actual trajectory comes from elsewhere.
	Avail *avail.Markov3
}

// Validate checks the processor description.
func (p *Processor) Validate() error {
	if p.W <= 0 {
		return fmt.Errorf("platform: processor %d has non-positive speed w=%d", p.ID, p.W)
	}
	if p.Avail == nil {
		return fmt.Errorf("platform: processor %d has no availability model", p.ID)
	}
	return nil
}

// Platform is a set of processors served by one master.
type Platform struct {
	Processors []*Processor
}

// Validate checks the platform description.
func (pl *Platform) Validate() error {
	if len(pl.Processors) == 0 {
		return fmt.Errorf("platform: no processors")
	}
	for i, p := range pl.Processors {
		if p == nil {
			return fmt.Errorf("platform: processor %d is nil", i)
		}
		if p.ID != i {
			return fmt.Errorf("platform: processor at index %d has ID %d", i, p.ID)
		}
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// P reports the number of processors.
func (pl *Platform) P() int { return len(pl.Processors) }

// Params carries the application and communication parameters of one run.
type Params struct {
	// M is the number of tasks per iteration.
	M int
	// Iterations is the number of iterations to complete (the paper's
	// experiments fix 10 and measure makespan).
	Iterations int
	// Ncom is the maximum number of simultaneous master transfers
	// (BW / bw in the bounded multi-port model). Use NoContention for ∞.
	Ncom int
	// Tprog is the number of slots needed to send the program to a worker.
	Tprog int
	// Tdata is the number of slots needed to send one task's input data.
	Tdata int
	// MaxReplicas caps the number of *additional* copies of a task
	// (the paper uses 2, i.e. at most 3 copies in flight).
	MaxReplicas int
	// MaxSlots aborts a simulation that exceeds this many slots; 0 means
	// DefaultMaxSlots. Runs that hit the cap are reported as censored.
	MaxSlots int
}

// NoContention encodes ncom = +∞ (Proposition 2's regime).
const NoContention = int(^uint(0) >> 1) // max int

// DefaultMaxSlots bounds runaway simulations (bad heuristics on hostile
// availability) while being far beyond any legitimate paper-scale makespan.
const DefaultMaxSlots = 1_000_000

// Validate checks parameter consistency.
func (pr *Params) Validate() error {
	switch {
	case pr.M <= 0:
		return fmt.Errorf("platform: M=%d, want > 0", pr.M)
	case pr.Iterations <= 0:
		return fmt.Errorf("platform: Iterations=%d, want > 0", pr.Iterations)
	case pr.Ncom <= 0:
		return fmt.Errorf("platform: Ncom=%d, want > 0 (use NoContention for unbounded)", pr.Ncom)
	case pr.Tprog < 0:
		return fmt.Errorf("platform: Tprog=%d, want >= 0", pr.Tprog)
	case pr.Tdata < 0:
		return fmt.Errorf("platform: Tdata=%d, want >= 0", pr.Tdata)
	case pr.MaxReplicas < 0:
		return fmt.Errorf("platform: MaxReplicas=%d, want >= 0", pr.MaxReplicas)
	case pr.MaxSlots < 0:
		return fmt.Errorf("platform: MaxSlots=%d, want >= 0", pr.MaxSlots)
	}
	return nil
}

// EffectiveMaxSlots resolves the MaxSlots default.
func (pr *Params) EffectiveMaxSlots() int {
	if pr.MaxSlots == 0 {
		return DefaultMaxSlots
	}
	return pr.MaxSlots
}

// RandomPlatform draws a platform with the rules of Section 7: p processors,
// each with w uniform in [wmin, 10·wmin] and an availability model drawn with
// the paper's transition rule.
func RandomPlatform(r *rng.PCG, p, wmin int) *Platform {
	if p <= 0 || wmin <= 0 {
		panic("platform: RandomPlatform needs p > 0 and wmin > 0")
	}
	procs := make([]*Processor, p)
	for i := range procs {
		procs[i] = &Processor{
			ID:    i,
			W:     r.IntRange(wmin, 10*wmin),
			Avail: avail.RandomMarkov3(r),
		}
	}
	return &Platform{Processors: procs}
}

// Homogeneous builds a platform of p identical processors with speed w and a
// shared availability model; handy for tests and for the off-line study
// (which assumes same-speed processors).
func Homogeneous(p, w int, m *avail.Markov3) *Platform {
	procs := make([]*Processor, p)
	for i := range procs {
		procs[i] = &Processor{ID: i, W: w, Avail: m}
	}
	return &Platform{Processors: procs}
}
