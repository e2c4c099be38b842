// Package workload generates the experimental scenarios of Section 7 of the
// paper and their contention-prone variants (Table 3).
//
// A scenario fixes a platform (20 processors with random speeds and random
// Markov availability) and the communication parameters derived from wmin:
// Tdata = wmin (the fastest processor has a compute/communication ratio of
// 1) and Tprog = 5·wmin. A grid cell is one (n, ncom, wmin) combination of
// Table 1; the full paper grid crosses 4 × 3 × 10 cells with 247 scenarios
// and 10 trials each.
package workload

import (
	"fmt"

	"repro/internal/avail"
	"repro/internal/platform"
	"repro/internal/rng"
)

// Cell is one parameter combination of Table 1.
type Cell struct {
	// N is the number of tasks per iteration (the paper's n).
	N int
	// Ncom is the master's concurrent-transfer budget.
	Ncom int
	// Wmin scales task durations: w_q ∈ U[wmin, 10·wmin].
	Wmin int
}

// String renders the cell compactly.
func (c Cell) String() string {
	return fmt.Sprintf("n=%d ncom=%d wmin=%d", c.N, c.Ncom, c.Wmin)
}

// PaperGrid returns the 120 cells of Table 1:
// n ∈ {5,10,20,40} × ncom ∈ {5,10,20} × wmin ∈ 1..10.
func PaperGrid() []Cell {
	var out []Cell
	for _, n := range []int{5, 10, 20, 40} {
		for _, ncom := range []int{5, 10, 20} {
			for wmin := 1; wmin <= 10; wmin++ {
				out = append(out, Cell{N: n, Ncom: ncom, Wmin: wmin})
			}
		}
	}
	return out
}

// Scenario is one concrete experimental setting: a platform plus run
// parameters. Trials of a scenario share the platform and differ only in the
// availability trajectories (the paper varies the transition seed).
type Scenario struct {
	// Name labels the scenario for reports.
	Name string
	// Platform is the drawn platform (speeds + availability models).
	Platform *platform.Platform
	// Params are the run parameters (m, ncom, Tprog, Tdata, iterations...).
	Params platform.Params
}

// Options tunes scenario generation away from the paper's defaults.
type Options struct {
	// P is the platform size (default 20, the paper's value).
	P int
	// Iterations is the number of iterations per run (default 10).
	Iterations int
	// CommScale multiplies Tdata and Tprog (1 = paper base; 5 and 10 give
	// the contention-prone scenarios of Table 3).
	CommScale int
	// MaxReplicas caps extra copies per task (default 2).
	MaxReplicas int
	// MaxSlots caps run length (default platform.DefaultMaxSlots).
	MaxSlots int
}

// DefaultProcessors is the paper's platform size, the default for
// Options.P. Exported so callers that must anticipate the generated
// platform size (e.g. trace-file validation) cannot drift from it.
const DefaultProcessors = 20

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.P == 0 {
		o.P = DefaultProcessors
	}
	if o.Iterations == 0 {
		o.Iterations = 10
	}
	if o.CommScale == 0 {
		o.CommScale = 1
	}
	if o.MaxReplicas == 0 {
		o.MaxReplicas = 2
	}
	return o
}

// Generate draws one scenario for a grid cell using the rules of Section 7:
// p processors with w_q ∈ U[wmin, 10·wmin] and paper-rule Markov models,
// Tdata = wmin·CommScale, Tprog = 5·wmin·CommScale.
func Generate(r *rng.PCG, cell Cell, opt Options) *Scenario {
	opt = opt.withDefaults()
	pl := platform.RandomPlatform(r, opt.P, cell.Wmin)
	return &Scenario{
		Name:     cell.String(),
		Platform: pl,
		Params: platform.Params{
			M:           cell.N,
			Iterations:  opt.Iterations,
			Ncom:        cell.Ncom,
			Tprog:       5 * cell.Wmin * opt.CommScale,
			Tdata:       cell.Wmin * opt.CommScale,
			MaxReplicas: opt.MaxReplicas,
			MaxSlots:    opt.MaxSlots,
		},
	}
}

// Trial materializes the availability trajectories for one trial of a
// scenario: one Markov process per processor, each seeded from an
// independent split of r, started from the model's stationary distribution.
func (s *Scenario) Trial(r *rng.PCG) []avail.Process {
	procs := make([]avail.Process, s.Platform.P())
	for i, p := range s.Platform.Processors {
		stream := r.Split()
		procs[i] = p.Avail.NewProcess(stream, p.Avail.SampleStationary(stream))
	}
	return procs
}

// TrialPool owns reusable trial scratch: the availability processes of one
// trial, their per-processor RNG streams, and the Process slice handed to
// the engine. Tight loops that materialize many trials on one goroutine
// (sweep workers) reuse one pool so the per-trial steady state allocates
// nothing; the trajectories produced are bit-identical to Scenario.Trial's.
// A TrialPool must not be shared between goroutines, and the slice returned
// by Trial is only valid until the pool's next Trial call.
type TrialPool struct {
	procs   []avail.Process
	streams []rng.PCG
	states  []avail.Markov3Process
}

// Trial is Scenario.Trial on pooled storage: it consumes r exactly as
// Scenario.Trial would (one Split per processor, one stationary draw per
// stream), so the resulting trajectories are identical draw for draw.
func (tp *TrialPool) Trial(s *Scenario, r *rng.PCG) []avail.Process {
	p := s.Platform.P()
	if cap(tp.procs) < p {
		tp.procs = make([]avail.Process, p)
		tp.streams = make([]rng.PCG, p)
		tp.states = make([]avail.Markov3Process, p)
	}
	tp.procs = tp.procs[:p]
	tp.streams = tp.streams[:p]
	tp.states = tp.states[:p]
	for i, proc := range s.Platform.Processors {
		stream := &tp.streams[i]
		r.SplitInto(stream)
		tp.states[i].Reset(proc.Avail, stream, proc.Avail.SampleStationary(stream))
		tp.procs[i] = &tp.states[i]
	}
	return tp.procs
}

// ContentionCell is the Table 3 setting: n=20, ncom=5, wmin=1.
func ContentionCell() Cell { return Cell{N: 20, Ncom: 5, Wmin: 1} }
