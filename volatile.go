// Package volatile is the public API of this reproduction of
// "Scheduling Parallel Iterative Applications on Volatile Resources"
// (Casanova, Dufossé, Robert, Vivien — IPDPS 2011 / LIP RR-2010-31).
//
// It simulates master-worker iterative applications on processors that
// alternate between UP, RECLAIMED and DOWN states, under a bounded
// multi-port communication model (the master sustains at most ncom
// simultaneous transfers), and implements the paper's seventeen scheduling
// heuristics: the random family (uniform + four reliability weights, each
// optionally speed-scaled) and the greedy family (MCT, EMCT, LW, UD and
// their contention-corrected * variants).
//
// Typical use:
//
//	scn := volatile.NewScenario(42, volatile.Cell{Tasks: 20, Ncom: 10, Wmin: 3},
//	    volatile.ScenarioOptions{})
//	res, err := scn.Run("emct*", 1)
//	// res.Makespan is the number of slots needed for 10 iterations.
//
// The sweep API (RunSweep, Table2Config, Figure2Config, Table3Config)
// regenerates the paper's Table 2, Figure 2 and Table 3.
package volatile

import (
	"fmt"
	"strings"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Cell is one experimental parameter combination of the paper's Table 1.
type Cell struct {
	// Tasks is the number of tasks per iteration (the paper's n).
	Tasks int
	// Ncom is the master's concurrent-transfer budget.
	Ncom int
	// Wmin scales task durations: processor speeds are drawn uniformly from
	// [Wmin, 10·Wmin]; Tdata = Wmin and Tprog = 5·Wmin (times CommScale).
	Wmin int
}

// String renders the cell compactly.
func (c Cell) String() string {
	return fmt.Sprintf("n=%d ncom=%d wmin=%d", c.Tasks, c.Ncom, c.Wmin)
}

// Validate rejects a cell NewScenario cannot generate a platform for:
// Tasks, Ncom and Wmin must all be positive. RunSweep checks every cell of
// its config the same way.
func (c Cell) Validate() error {
	if c.Tasks <= 0 || c.Ncom <= 0 || c.Wmin <= 0 {
		return fmt.Errorf("volatile: cell %s: Tasks, Ncom and Wmin must be positive", c)
	}
	return nil
}

// PaperGrid returns the 120 cells of the paper's Table 1.
func PaperGrid() []Cell {
	cells := workload.PaperGrid()
	out := make([]Cell, len(cells))
	for i, c := range cells {
		out[i] = Cell{Tasks: c.N, Ncom: c.Ncom, Wmin: c.Wmin}
	}
	return out
}

// ContentionCell returns the Table 3 setting (n=20, ncom=5, wmin=1), to be
// combined with ScenarioOptions.CommScale 5 or 10.
func ContentionCell() Cell { return Cell{Tasks: 20, Ncom: 5, Wmin: 1} }

// ScenarioOptions tunes scenario generation. The zero value reproduces the
// paper's settings: 20 processors, 10 iterations, communication scale 1,
// up to 2 extra replicas per task.
type ScenarioOptions struct {
	// Processors is the platform size (default 20).
	Processors int
	// Iterations is the number of iterations per run (default 10).
	Iterations int
	// CommScale multiplies Tdata and Tprog (default 1; Table 3 uses 5, 10).
	CommScale int
	// MaxReplicas caps extra task copies: 0 means the paper default of 2;
	// negative disables replication entirely.
	MaxReplicas int
	// MaxSlots caps run length (0 = a generous default); capped runs are
	// reported as censored.
	MaxSlots int
}

// Validate rejects option values scenario generation cannot honor. The
// zero value (the paper's defaults) is always valid; a negative MaxReplicas
// is the documented replication-disable switch, so it is valid too. Sweeps
// validate their Options up front; NewScenario has no error path, so
// callers overriding Processors (the volunteer-grid regime, P = 1k-100k)
// should Validate first.
func (o ScenarioOptions) Validate() error {
	if o.Processors < 0 {
		return fmt.Errorf("volatile: Processors %d: must be >= 0 (0 = paper default of 20)", o.Processors)
	}
	if o.Iterations < 0 {
		return fmt.Errorf("volatile: Iterations %d: must be >= 0 (0 = paper default of 10)", o.Iterations)
	}
	if o.CommScale < 0 {
		return fmt.Errorf("volatile: CommScale %d: must be >= 0 (0 = paper default of 1)", o.CommScale)
	}
	if o.MaxSlots < 0 {
		return fmt.Errorf("volatile: MaxSlots %d: must be >= 0 (0 = default cap)", o.MaxSlots)
	}
	return nil
}

func (o ScenarioOptions) toWorkload() workload.Options {
	return workload.Options{
		P:           o.Processors,
		Iterations:  o.Iterations,
		CommScale:   o.CommScale,
		MaxReplicas: o.MaxReplicas,
		MaxSlots:    o.MaxSlots,
	}
}

// Heuristics lists every implemented heuristic name in the paper's Table 2
// order: emct, emct*, mct, mct*, ud*, ud, lw*, lw, random1w..random3w,
// random3..random2, random.
func Heuristics() []string { return core.Names() }

// GreedyHeuristics lists the greedy family (the curves of Figure 2 plus
// their uncorrected counterparts).
func GreedyHeuristics() []string { return core.GreedyNames() }

// Mode selects the engine's time base: ModeSlot ticks every slot (the
// reference semantics and the default), ModeEvent samples availability at
// sojourn granularity and skips quiet spans. See the sim package for the
// equivalence contract between the two.
type Mode = sim.Mode

// Engine time bases re-exported for mode selection.
const (
	ModeSlot  = sim.ModeSlot
	ModeEvent = sim.ModeEvent
)

// ParseMode parses a mode name ("slot" or "event"), failing with the list
// of valid names.
func ParseMode(s string) (Mode, error) { return sim.ParseMode(s) }

// ModeNames returns the valid mode names.
func ModeNames() []string { return sim.ModeNames() }

// Event kinds re-exported for event-stream consumers.
const (
	EvProgramStart  = sim.EvProgramStart
	EvDataStart     = sim.EvDataStart
	EvComputeStart  = sim.EvComputeStart
	EvTaskComplete  = sim.EvTaskComplete
	EvCopyCancelled = sim.EvCopyCancelled
	EvCrash         = sim.EvCrash
	EvIterationDone = sim.EvIterationDone
)

// Aliased result types (defined in the simulation engine).
type (
	// RunResult is the outcome of one simulation run.
	RunResult = sim.Result
	// RunStats carries the resource counters of a run.
	RunStats = sim.Stats
	// Event is an engine occurrence (for verbose timelines).
	Event = sim.Event
	// SlotReport is the per-slot observer payload.
	SlotReport = sim.SlotReport
	// AllocationPolicy decides a moldable application's tasks-per-iteration
	// count at every iteration boundary (see SweepConfig.Alloc).
	AllocationPolicy = sim.AllocationPolicy
)

// ParseAllocPolicy builds an allocation policy from its spec string
// ("fixed", "maximum-iters", "split-into[:parts]", "reshape[:step]"). Each
// call returns a fresh instance; stateful policies (reshape) reset at every
// run boundary, so one instance may serve many sequential runs but must not
// be shared between goroutines.
func ParseAllocPolicy(spec string) (AllocationPolicy, error) {
	return sim.ParseAllocPolicy(spec)
}

// AllocPolicySpecs lists the accepted allocation-policy spec forms.
func AllocPolicySpecs() []string { return sim.AllocPolicySpecs() }

// Scenario is a concrete experimental setting: a randomly drawn platform
// plus run parameters. Runs on the same Scenario with the same trial seed
// see identical availability trajectories, so heuristics can be compared
// instance by instance (the paper's dfb metric). A traced Scenario (see
// Traced) replays recorded availability instead of sampling its models.
type Scenario struct {
	inner *workload.Scenario
	// vectors, non-nil on a traced scenario, replay verbatim in every trial;
	// inner's platform then carries the Markov models fitted to them.
	vectors []avail.Vector
	// traces interns the traced scenarios derived from this one (see
	// trace.go); it is safe for concurrent use by sweep workers.
	traces traceCache
}

// NewScenario draws a scenario from the given seed using the generation
// rules of the paper's Section 7.
func NewScenario(seed uint64, cell Cell, opt ScenarioOptions) *Scenario {
	wo := opt.toWorkload()
	disableReplicas := wo.MaxReplicas < 0
	if disableReplicas {
		wo.MaxReplicas = 2 // placeholder; zeroed after generation
	}
	scn := workload.Generate(rng.New(seed), workload.Cell{N: cell.Tasks, Ncom: cell.Ncom, Wmin: cell.Wmin}, wo)
	if disableReplicas {
		scn.Params.MaxReplicas = 0
	}
	return &Scenario{inner: scn}
}

// Describe returns a human-readable summary of the scenario.
func (s *Scenario) Describe() string {
	var b strings.Builder
	p := s.inner.Params
	fmt.Fprintf(&b, "scenario %s: %d processors, %d iterations of %d tasks\n",
		s.inner.Name, s.inner.Platform.P(), p.Iterations, p.M)
	fmt.Fprintf(&b, "  Tprog=%d Tdata=%d ncom=%d max extra replicas=%d\n",
		p.Tprog, p.Tdata, p.Ncom, p.MaxReplicas)
	for _, proc := range s.inner.Platform.Processors {
		piU, piR, piD := proc.Avail.Stationary()
		fmt.Fprintf(&b, "  P%-2d w=%-3d piU=%.3f piR=%.3f piD=%.3f\n",
			proc.ID, proc.W, piU, piR, piD)
	}
	return b.String()
}

// Params returns the run parameters (m, ncom, Tprog, Tdata, iterations...).
func (s *Scenario) Params() platform.Params { return s.inner.Params }

// Processors returns the number of processors in the platform.
func (s *Scenario) Processors() int { return s.inner.Platform.P() }

// ProcessorSpeed returns w_i, the UP slots processor i needs per task.
func (s *Scenario) ProcessorSpeed(i int) int {
	return s.inner.Platform.Processors[i].W
}

// ProcessorModel returns the 3-state Markov availability model of
// processor i (the model informed heuristics consult, and the generator of
// its trajectories unless the scenario is traced).
func (s *Scenario) ProcessorModel(i int) *avail.Markov3 {
	return s.inner.Platform.Processors[i].Avail
}

// Runner wraps a reusable simulation engine plus per-trial scratch, and is
// the one way a scenario runs: Run, RunMode and RunWithHooks use a fresh
// Runner. Tight loops (sweeps, benchmarks) that execute many runs on one
// goroutine should create one Runner and pass it to RunWith: every
// engine-internal buffer (worker states, task tables, scheduler view,
// scratch, the copy pool) and every trial resource (availability processes,
// their RNG streams, trace replay processes) is then recycled across runs
// instead of reallocated. Consecutive runs on the same (scenario, trial
// seed) — every contender of one sweep instance, batch disciplines
// included — replay one recorded, merged transition log (trialTape) in the
// Runner's time base instead of sampling and merging the trajectories
// again; a traced scenario's vectors are recorded once for all its trials.
// A Runner must not be shared between goroutines.
type Runner struct {
	r sim.Runner
	// mode is the engine time base every run on this Runner uses.
	mode Mode
	// tape holds the current trial.
	tape trialTape
	// scheds pools one scheduler per heuristic name. Schedulers that opt
	// into cross-run reuse (sim.PoolSafe: the whole core registry) are
	// constructed once and reused, which amortizes their internal state —
	// notably the greedy family's incremental score caches — across every
	// run this Runner executes; their RNG is reseeded per run exactly as a
	// fresh construction would seed it, so results are bit-identical.
	// Schedulers that do not opt in are rebuilt per run, as before.
	scheds map[string]*pooledSched
}

// pooledSched is one slot of the Runner's scheduler pool. pcg is the
// scheduler's stream for the current run: it is owned by the pool so it can
// be reseeded in place (the scheduler holds a pointer to it).
type pooledSched struct {
	pcg   rng.PCG
	sched sim.Scheduler // non-nil once a pool-safe instance exists
}

// pooled returns (creating if needed) the pool slot for name.
func (r *Runner) pooled(name string) *pooledSched {
	if r.scheds == nil {
		r.scheds = make(map[string]*pooledSched)
	}
	ps := r.scheds[name]
	if ps == nil {
		ps = &pooledSched{}
		r.scheds[name] = ps
	}
	return ps
}

// instance returns the slot's scheduler, constructing one on first use and
// retaining it only when it declares cross-run reuse safe. The caller must
// seed ps.pcg for the run before the scheduler's first Pick (construction
// itself never draws).
func (ps *pooledSched) instance(name string) (sim.Scheduler, error) {
	if ps.sched != nil {
		return ps.sched, nil
	}
	s, err := core.New(name, &ps.pcg)
	if err != nil {
		return nil, err
	}
	if sim.PoolSafe(s) {
		ps.sched = s
	}
	return s, nil
}

// NewRunner returns a reusable Runner; its first run sizes the buffers.
func NewRunner() *Runner { return &Runner{} }

// SetMode selects the engine time base for every subsequent run on this
// Runner (default ModeSlot). The trial RNG discipline is identical in both
// modes — the same trial seed draws the same platform trajectories — but
// event mode consumes the per-processor streams at sojourn rather than
// slot granularity, so Markov-driven results are distribution-equivalent,
// not bit-identical, across modes. Both modes advance availability by
// replaying the Runner's tape of the trial, one merged transition log
// recorded per slot or per transition; only event mode skips quiet spans.
func (r *Runner) SetMode(m Mode) { r.mode = m }

// Run executes the named heuristic on one trial of the scenario. The trial
// seed determines the availability trajectories (unless the scenario is
// traced) and any heuristic randomness; the same (scenario, trialSeed) pair
// confronts every heuristic with the same world.
func (s *Scenario) Run(heuristic string, trialSeed uint64) (*RunResult, error) {
	return s.RunWith(nil, heuristic, trialSeed)
}

// RunMode is Run under an explicit engine time base.
func (s *Scenario) RunMode(heuristic string, trialSeed uint64, mode Mode) (*RunResult, error) {
	return s.RunWith(&Runner{mode: mode}, heuristic, trialSeed)
}

// RunWith is Run on a reusable Runner (nil runs on a fresh one), under the
// Runner's mode (SetMode).
func (s *Scenario) RunWith(r *Runner, heuristic string, trialSeed uint64) (*RunResult, error) {
	if r == nil {
		r = NewRunner()
	}
	return s.run(r, heuristic, trialSeed, nil, nil, nil)
}

// RunWithHooks is Run with optional per-slot observer and event callbacks.
func (s *Scenario) RunWithHooks(heuristic string, trialSeed uint64,
	observer func(*SlotReport), onEvent func(Event)) (*RunResult, error) {
	return s.run(NewRunner(), heuristic, trialSeed, observer, onEvent, nil)
}

// trialTape is one trial recorded for replay: the trial's availability
// processes and streams (owned by the tape, so no other run can draw from
// them while it records), the trial RNG state right after Trial, and the
// tape itself. It is keyed by (scenario, trial seed, time base), since the
// two time bases read different trajectories from the same streams; a
// traced scenario replays the same vectors in every trial, so its key
// ignores the seed.
type trialTape struct {
	scn  *workload.Scenario // nil until the first recording
	seed uint64
	mode Mode
	pool workload.TrialPool
	rng  rng.PCG
	// vprocs/vps pool the replay processes of traced scenarios.
	vprocs []avail.VectorProcess
	vps    []avail.Process
	tape   avail.Tape
}

// trial returns the tape of (s, trialSeed) in the Runner's time base,
// recording the trial afresh when the key changed, and seeds the
// scheduler's stream: split off the trial RNG exactly where Trial leaves
// it, as on a fresh trial, or — on a traced scenario, whose replay draws no
// randomness — from the trial seed itself. Slot mode gets a per-slot tape.
func (r *Runner) trial(s *Scenario, trialSeed uint64, stream *rng.PCG) *avail.Tape {
	tt := &r.tape
	traced := s.vectors != nil
	if tt.scn != s.inner || tt.mode != r.mode || !traced && tt.seed != trialSeed {
		tt.scn, tt.seed, tt.mode = s.inner, trialSeed, r.mode
		var procs []avail.Process
		if traced {
			procs = tt.vectorProcs(s.vectors)
		} else {
			tt.rng.Reseed(trialSeed)
			procs = tt.pool.Trial(s.inner, &tt.rng)
		}
		tt.tape.Reset(procs, r.mode != ModeEvent, s.inner.Params.EffectiveMaxSlots())
	}
	if traced {
		stream.Reseed(trialSeed)
	} else {
		trialRng := tt.rng
		trialRng.SplitInto(stream)
	}
	return &tt.tape
}

// run executes one trial on r, replaying the Runner's tape of the trial.
// The RNG is consumed as workload.Scenario.Trial and sim.Run would consume
// it on their own (Reseed mirrors rng.New, TrialPool.Trial mirrors Trial,
// SplitInto mirrors Split, the tape replays the processes' own
// trajectories).
func (s *Scenario) run(r *Runner, heuristic string, trialSeed uint64,
	observer func(*SlotReport), onEvent func(Event), alloc AllocationPolicy) (*RunResult, error) {
	ps := r.pooled(heuristic)
	tape := r.trial(s, trialSeed, &ps.pcg)
	sched, err := ps.instance(heuristic)
	if err != nil {
		return nil, err
	}
	return r.r.Run(sim.Config{
		Platform:  s.inner.Platform,
		Params:    s.inner.Params,
		Tape:      tape,
		Scheduler: sched,
		Mode:      r.mode,
		Observer:  observer,
		OnEvent:   onEvent,
		Alloc:     alloc,
	})
}
