package volatile

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TableRow is one line of a Table 2-style ranking: a heuristic's average
// degradation-from-best (percent) and its number of (tied-)wins.
type TableRow = stats.Row

// SweepConfig describes one experiment sweep: a set of grid cells, the
// contenders to compare, and the number of scenarios and trials per cell.
// All contenders face identical instances (same platform, same availability
// trajectories), which the dfb metric requires.
type SweepConfig struct {
	// Cells are the (n, ncom, wmin) combinations to cover. Under an
	// allocation policy a cell's Tasks value remains the application's
	// natural shape: policies receive it as Params.M.
	Cells []Cell
	// Heuristics are the contenders to compare: registered heuristic names
	// and batch disciplines (BatchFCFS, BatchEASY), in any mix. All run on
	// the same engine and face the same instance, so the per-instance best
	// is taken over both. Default: all 17 heuristics.
	Heuristics []string
	// Scenarios is the number of random scenarios per cell (paper: 247).
	Scenarios int
	// Trials is the number of availability draws per scenario (paper: 10).
	Trials int
	// Options tunes scenario generation (CommScale for Table 3, etc.).
	// MaxReplicas only affects heuristics; batch jobs are never replicated.
	Options ScenarioOptions
	// Trace, when non-nil, replaces the Markov availability model with
	// replayed traces (see TraceSource). Nil means the Markov model.
	Trace *TraceSource
	// Alloc is the allocation-policy spec ("fixed", "maximum-iters",
	// "split-into[:parts]", "reshape[:step]") that sizes each iteration at
	// its boundary; "" means the rigid model. Under "fixed" every run is
	// bit-identical to the rigid one, but the sweep has its own digest.
	Alloc string
	// Mode selects the engine time base (default ModeSlot). Event mode is
	// distribution-equivalent but consumes the availability RNG streams at
	// sojourn granularity, so sweep aggregates differ from slot mode within
	// sampling noise; see EXPERIMENTS.md. Every contender, batch
	// disciplines included, replays the instance's world in this mode.
	Mode Mode
	// Seed makes the whole sweep reproducible.
	Seed uint64
	// Workers bounds parallelism (default: GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives (completedInstances, totalInstances).
	// It may be called concurrently from several worker goroutines; each
	// done value in 1..total is delivered exactly once, but not necessarily
	// in ascending order. A resumed sweep starts done at the instance count
	// its checkpoint already covers.
	Progress func(done, total int)
	// Checkpoint, when non-nil, makes the sweep crash-safe: committed state
	// is persisted at chunk boundaries and a rerun with Checkpoint.Resume
	// continues from the watermark, bit-identical to an uninterrupted run.
	Checkpoint *CheckpointConfig
	// Stop, when non-nil, requests a graceful interrupt when closed: no new
	// chunks are fed, in-flight chunks commit, a final checkpoint is written
	// (when configured), and the sweep returns *InterruptedError.
	Stop <-chan struct{}
	// ContinueOnError switches a failed instance from aborting the sweep
	// to record-and-continue: the instance is dropped from the aggregates
	// and surfaced via SweepResult.FailedInstances / InstanceErrors. A run
	// is deterministic in its trial seed, so rerunning a failed instance
	// would fail the same way.
	ContinueOnError bool
	// Faults injects deterministic failures (worker errors, committer
	// crashes, checkpoint-I/O faults) for crash-safety tests; nil in
	// production.
	Faults *faultinject.Plan
}

// SweepResult aggregates a sweep.
type SweepResult struct {
	// Instances is the number of (scenario × trial) instances aggregated.
	Instances int
	// Overall ranks heuristics over all instances (Table 2).
	Overall []TableRow
	// ByWmin ranks heuristics per wmin value (Figure 2's x-axis).
	ByWmin map[int][]TableRow
	// ByCell ranks heuristics per grid cell.
	ByCell map[Cell][]TableRow
	// Censored counts runs that hit the slot cap.
	Censored int
	// FailedInstances counts instances dropped after a failed run under
	// ContinueOnError. They contribute to no aggregate; a nonzero count
	// means the rows above summarize a censored population.
	FailedInstances int
	// InstanceErrors samples the errors behind FailedInstances (bounded; a
	// long degraded sweep keeps the first few, not megabytes of repeats).
	InstanceErrors []string
	// Warnings reports non-fatal degradations — checkpoint writes that
	// failed while the sweep itself carried on.
	Warnings []string
}

// sweepPlan is a SweepConfig resolved once, shared by RunSweep and
// ConfigDigest so the two accept exactly the same configs: the contenders,
// the trace source's loaded sets or synthetic length, and the canonical
// config digest.
type sweepPlan struct {
	contenders []string     // heuristics and batch disciplines, in config order
	sets       []*trace.Set // recorded trace sets (Trace.Files)
	traceLen   int          // synthetic trace length (Trace without Files)
	digest     string
}

// plan validates the config and resolves it. A sweep sets at most one of a
// trace source, an allocation policy and batch contenders, and that choice
// names the digest's flavour; the flavour tags and extras are the ones
// existing checkpoints and cached results are bound to.
func (cfg SweepConfig) plan() (*sweepPlan, error) {
	if len(cfg.Cells) == 0 {
		return nil, fmt.Errorf("volatile: sweep with no cells")
	}
	for _, c := range cfg.Cells {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	if cfg.Scenarios <= 0 || cfg.Trials <= 0 {
		return nil, fmt.Errorf("volatile: sweep needs Scenarios > 0 and Trials > 0")
	}
	// RunSweep counts chunks and instances in int; a grid whose instance
	// count does not fit is rejected here, so ConfigDigest rejects it too.
	if cfg.Scenarios > math.MaxInt/len(cfg.Cells)/cfg.Trials {
		return nil, fmt.Errorf("volatile: %d cells × %d scenarios × %d trials overflows the instance count",
			len(cfg.Cells), cfg.Scenarios, cfg.Trials)
	}
	if err := cfg.Options.Validate(); err != nil {
		return nil, err
	}
	p := &sweepPlan{contenders: cfg.Heuristics}
	if len(p.contenders) == 0 {
		p.contenders = Heuristics()
	}
	// The digest lists the heuristics, and the batch contenders as extras.
	var heuristics, disciplines []string
	for _, name := range p.contenders {
		if _, err := core.Lookup(name); err != nil {
			return nil, fmt.Errorf("volatile: heuristic %q: %w", name, err)
		}
		if isBatch(name) {
			disciplines = append(disciplines, "discipline "+name)
		} else {
			heuristics = append(heuristics, name)
		}
	}
	hasTrace, hasAlloc, hasBatch := cfg.Trace != nil, cfg.Alloc != "", len(disciplines) > 0
	if hasTrace && hasAlloc || hasTrace && hasBatch || hasAlloc && hasBatch {
		return nil, fmt.Errorf("volatile: a sweep combines at most one of a trace source, an allocation policy and batch contenders")
	}
	flavour, extra := "runsweep", []string(nil)
	switch {
	case hasTrace:
		var err error
		flavour = "tracesweep"
		if extra, err = p.resolveTrace(cfg.Trace, cfg.Options); err != nil {
			return nil, err
		}
	case hasBatch:
		flavour, extra = "comparesweep", disciplines
		// Batch contenders once replayed the slot-mode world of an event-mode
		// sweep; this line keeps results of that kind from being resumed or
		// served for a sweep whose contenders share one clock.
		if cfg.Mode == ModeEvent {
			extra = append(extra, "batch-clock event")
		}
	case hasAlloc:
		pol, err := ParseAllocPolicy(cfg.Alloc)
		if err != nil {
			return nil, err
		}
		flavour, extra = "moldable", []string{"alloc " + pol.Name()}
	}
	p.digest = sweepConfigDigest(flavour, cfg.Cells, heuristics,
		cfg.Scenarios, cfg.Trials, cfg.Options, cfg.Mode, cfg.Seed, extra...)
	return p, nil
}

// chunkResult is one chunk's contribution, sent by its worker to the
// committer: the completed instances in trial order and their censored-run
// count, the instances dropped under ContinueOnError with a sample of
// their errors, or the error that aborts the sweep.
type chunkResult struct {
	instances []*stats.InstanceResult
	censored  int
	failed    int
	errs      []string
	err       error
}

// chunkRunner is one worker's executor. The worker owns its engines and
// trial scratch (the Runner) and its policy instance (stateful policies
// reset at every run boundary, so reuse across the worker's runs changes
// nothing).
type chunkRunner struct {
	plan  *sweepPlan
	cfg   *SweepConfig
	rn    *Runner
	pol   AllocationPolicy
	done  *atomic.Int64 // instances finished sweep-wide, for Progress
	total int
}

func (p *sweepPlan) newChunkRunner(cfg *SweepConfig, done *atomic.Int64, total int) *chunkRunner {
	w := &chunkRunner{plan: p, cfg: cfg, rn: NewRunner(), done: done, total: total}
	w.rn.SetMode(cfg.Mode)
	if cfg.Alloc != "" {
		w.pol, _ = ParseAllocPolicy(cfg.Alloc) // the plan has validated the spec
	}
	return w
}

// run executes chunk ci's trials in order. A chunk's scenario is
// deterministic in (seed, cell, scenario index), so it is built once and
// shared across the chunk's trials. Under ContinueOnError a failed
// instance is dropped; a run is deterministic in (chunk, trial), so that
// verdict is the same for every worker count.
func (w *chunkRunner) run(ci int) *chunkResult {
	cfg := w.cfg
	cellIdx, scenIdx := ci/cfg.Scenarios, ci%cfg.Scenarios
	scnSeed := deriveSeed(cfg.Seed, uint64(cellIdx), uint64(scenIdx), 0xA11CE)
	scn := NewScenario(scnSeed, cfg.Cells[cellIdx], cfg.Options)
	out := &chunkResult{instances: make([]*stats.InstanceResult, 0, cfg.Trials)}
	// fitted holds the scenario's fit of each recorded trace file.
	fitted := make([]*Scenario, len(w.plan.sets))
	for tr := 0; tr < cfg.Trials; tr++ {
		var ir *stats.InstanceResult
		var nCens int
		err := cfg.Faults.InstanceFault(ci, tr)
		if err == nil {
			ir, nCens, err = w.instance(scn, fitted, cellIdx, scenIdx, tr)
		}
		switch {
		case err == nil:
			out.instances = append(out.instances, ir)
			out.censored += nCens
		case !cfg.ContinueOnError:
			out.err = err
			return out
		default:
			out.failed++
			if len(out.errs) < maxChunkErrors {
				out.errs = append(out.errs, err.Error())
			}
		}
		if cfg.Progress != nil {
			cfg.Progress(int(w.done.Add(1)), w.total)
		}
	}
	return out
}

// instance runs every contender on one (cell, scenario, trial) instance
// and returns their makespans with the instance's censored-run count. The
// availability source is resolved once — a trace source swaps in the
// instance's traced scenario, from the chunk's fits of recorded files —
// and every contender replays the same world.
func (w *chunkRunner) instance(scn *Scenario, fitted []*Scenario, cellIdx, scenIdx, trialIdx int) (*stats.InstanceResult, int, error) {
	cfg := w.cfg
	if cfg.Trace != nil {
		var err error
		if scn, err = w.plan.instanceTrace(scn, fitted, cfg, cellIdx, scenIdx, trialIdx); err != nil {
			return nil, 0, err
		}
	}
	trialSeed := deriveSeed(cfg.Seed, uint64(cellIdx), uint64(scenIdx), uint64(trialIdx))
	ir := &stats.InstanceResult{
		Makespans: make(map[string]int, len(w.plan.contenders)),
		Censored:  make(map[string]bool),
	}
	nCens := 0
	for _, h := range w.plan.contenders {
		res, err := scn.run(w.rn, h, trialSeed, nil, nil, w.pol)
		if err != nil {
			return nil, 0, fmt.Errorf("volatile: %s on %s: %w", h, scn.inner.Name, err)
		}
		ir.Makespans[h] = res.Makespan
		if !res.Completed {
			ir.Censored[h] = true
			nCens++
		}
	}
	return ir, nCens, nil
}

// maxInstanceErrors bounds SweepResult.InstanceErrors; a sweep degrading on
// every chunk reports a sample of its failures, not all of them.
const maxInstanceErrors = 4

// maxChunkErrors bounds the per-chunk error sample workers ship to the
// committer.
const maxChunkErrors = 2

// RunSweep executes the sweep, parallelizing across instances. Results are
// deterministic for a fixed config, independent of worker count.
//
// Work is dispatched at chunk granularity, one chunk per (cell, scenario)
// pair, and every chunk's trials run in order on a single worker. Chunk
// order is enforced in one place, the order queue: the feeder hands each
// chunk to a worker and appends the chunk's result channel to the queue,
// and the caller's goroutine, the committer, reads it front to back, waits
// for each chunk's result and folds the instances into the overall /
// per-wmin / per-cell aggregates. Chunk order equals the job order of a
// sequential pass, so the aggregates — floating-point summation order
// included — are bit-identical for every worker count. The queue's
// capacity bounds the fed-but-uncommitted chunks, so even when one slow
// chunk stalls the commit, sweep memory stays proportional to the worker
// count (× chunk size), never to the total instance count.
func RunSweep(cfg SweepConfig) (*SweepResult, error) {
	plan, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	ck := cfg.Checkpoint
	every := DefaultCheckpointEvery
	if ck != nil {
		if ck.Path == "" {
			return nil, fmt.Errorf("volatile: CheckpointConfig needs a Path")
		}
		// A negative Every is a typo, not a cadence: silently falling back
		// to the default would quietly change how much work a crash loses.
		if ck.Every < 0 {
			return nil, fmt.Errorf("volatile: CheckpointConfig.Every must be >= 0 (0 means DefaultCheckpointEvery; got %d)", ck.Every)
		}
		if ck.Every > 0 {
			every = ck.Every
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunks := len(cfg.Cells) * cfg.Scenarios
	total := chunks * cfg.Trials

	// Resume: restore the committer's aggregates and watermark from the
	// checkpoint, after binding it to this exact sweep (config digest and
	// chunk count). A missing file is a fresh start, so resume commands are
	// idempotent; a damaged or mismatched file is an error, never a silent
	// restart from zero.
	agg := newSweepAggregates()
	startChunk := 0
	if ck != nil && ck.Resume {
		switch snap, err := checkpoint.Load(ck.Path); {
		case err != nil && isNotExist(err):
			// No checkpoint yet: run from scratch.
		case err != nil:
			return nil, err
		default:
			if snap.ConfigDigest != plan.digest {
				return nil, fmt.Errorf("volatile: checkpoint %s was taken for a different sweep config (digest %.12s… != %.12s…)",
					ck.Path, snap.ConfigDigest, plan.digest)
			}
			if snap.Chunks != chunks {
				return nil, fmt.Errorf("volatile: checkpoint %s covers %d chunks, sweep has %d",
					ck.Path, snap.Chunks, chunks)
			}
			if err := agg.restore(snap); err != nil {
				return nil, err
			}
			startChunk = snap.NextChunk
		}
	}

	type job struct {
		ci  int
		res chan<- *chunkResult
	}
	jobs := make(chan job)
	// order is the commit queue: each fed chunk's result channel, in chunk
	// order. Its capacity bounds the chunks fed but not yet committed, and
	// with them sweep memory; four per worker lets the other workers run
	// ahead while one chunk holds up the commit.
	order := make(chan chan *chunkResult, 4*workers+4)
	// quit is closed by the committer once it stops reading order, which
	// releases a feeder blocked on a full queue or on busy workers.
	quit := make(chan struct{})
	var done atomic.Int64
	done.Store(int64(startChunk) * int64(cfg.Trials))

	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := plan.newChunkRunner(&cfg, &done, total)
			for j := range jobs {
				j.res <- w.run(j.ci)
			}
		}()
	}
	// Only the feeder writes stopped; the committer reads it after wg.Wait.
	stopped := false
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(jobs)
		for ci := startChunk; ci < chunks; ci++ {
			// Buffered, so a worker never waits on the committer.
			res := make(chan *chunkResult, 1)
			select {
			case jobs <- job{ci, res}:
			case <-quit:
				return
			case <-cfg.Stop:
				stopped = true
				return
			}
			// A fed chunk is always queued, so a graceful stop commits it.
			select {
			case order <- res:
			case <-quit:
				return
			}
		}
	}()

	// Committer: the aggregates and all durability bookkeeping belong to
	// this goroutine alone, so no lock guards them.
	next := startChunk
	var instanceErrors, warnings []string
	ckSeq, sinceCk := 0, 0
	persist := func() {
		err := cfg.Faults.CheckpointFault(ckSeq)
		ckSeq++
		if err == nil {
			err = checkpoint.Save(ck.Path, agg.snapshot(plan.digest, chunks, next))
		}
		if err != nil {
			// A failed checkpoint degrades durability, not correctness: the
			// sweep carries on and the caller learns via Warnings.
			warnings = append(warnings, fmt.Sprintf("checkpoint write %s failed: %v", ck.Path, err))
			return
		}
		if ck.OnSave != nil {
			ck.OnSave(&CheckpointStatus{ConfigDigest: plan.digest, CommittedChunks: next, Chunks: chunks, Partial: agg.result()})
		}
	}
	var abortErr, crashErr error
	for res := range order {
		r := <-res
		if r.err != nil {
			abortErr = r.err
			break
		}
		agg.commit(cfg.Cells[next/cfg.Scenarios], r)
		for _, e := range r.errs {
			if len(instanceErrors) < maxInstanceErrors {
				instanceErrors = append(instanceErrors, e)
			}
		}
		next++
		sinceCk++
		if cfg.Faults != nil && cfg.Faults.CrashAfterChunks > 0 && next == cfg.Faults.CrashAfterChunks {
			// Injected crash at the worst point of the boundary: the chunk
			// is merged in memory but not yet checkpointed, so resume must
			// re-run it.
			crashErr = fmt.Errorf("volatile: %w after %d/%d chunks",
				faultinject.ErrCommitterCrash, next, chunks)
			break
		}
		if ck != nil && sinceCk >= every {
			persist()
			sinceCk = 0
		}
	}
	close(quit)
	wg.Wait()
	if crashErr != nil {
		// A process that died at the boundary writes nothing more.
		return nil, crashErr
	}
	// Final checkpoint: covers completion, graceful stop and worker abort.
	if ck != nil {
		persist()
	}
	if abortErr != nil {
		if ck != nil {
			return nil, fmt.Errorf("%w (committed progress checkpointed to %s; rerun with Checkpoint.Resume)", abortErr, ck.Path)
		}
		return nil, abortErr
	}
	if stopped {
		path := ""
		if ck != nil {
			path = ck.Path
		}
		return nil, &InterruptedError{Path: path, Committed: next, Chunks: chunks}
	}

	out := agg.result()
	out.InstanceErrors, out.Warnings = instanceErrors, warnings
	return out, nil
}

// isNotExist reports whether err denotes a missing checkpoint file (Load
// wraps the underlying *PathError, so errors.Is sees through it).
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// deriveSeed mixes sweep indices into a reproducible sub-seed.
func deriveSeed(parts ...uint64) uint64 {
	s := rng.SplitMix64(0x9E3779B97F4A7C15)
	acc := s.Next()
	for _, p := range parts {
		sp := rng.SplitMix64(acc ^ p)
		acc = sp.Next()
	}
	return acc
}

// Table2Config builds the sweep of the paper's Table 2: the full Table 1
// grid with the given per-cell scenario and trial counts (the paper uses
// 247 scenarios × 10 trials; scale down for quick runs).
func Table2Config(scenarios, trials int, seed uint64) SweepConfig {
	return SweepConfig{
		Cells:     PaperGrid(),
		Scenarios: scenarios,
		Trials:    trials,
		Seed:      seed,
	}
}

// Figure2Config builds the sweep behind Figure 2: the same grid, restricted
// to the heuristics the figure plots (mct, mct*, emct, emct*, ud*, lw*).
func Figure2Config(scenarios, trials int, seed uint64) SweepConfig {
	cfg := Table2Config(scenarios, trials, seed)
	cfg.Heuristics = []string{"mct", "mct*", "emct", "emct*", "ud*", "lw*"}
	return cfg
}

// Table3Config builds a contention-prone sweep of Table 3: n=20, ncom=5,
// wmin=1 with communication scaled by commScale (5 or 10), greedy
// heuristics only (as in the paper's table).
func Table3Config(commScale, scenarios, trials int, seed uint64) SweepConfig {
	return SweepConfig{
		Cells:      []Cell{ContentionCell()},
		Heuristics: GreedyHeuristics(),
		Scenarios:  scenarios,
		Trials:     trials,
		Options:    ScenarioOptions{CommScale: commScale},
		Seed:       seed,
	}
}

// LargePConfig builds the volunteer-grid sweep (the large-platform regime,
// P = 1k-100k): one cell whose task count tracks the platform size (n = P,
// so the originals phase exercises full-width rounds) with a quarter-width
// communication budget, restricted to the informed greedy pairs whose
// incremental scoring and tree argmin carry that scale. Combine with
// ModeEvent for sojourn-granularity stepping; see EXPERIMENTS.md ("Large
// platforms") for expected runtimes per P.
func LargePConfig(processors, scenarios, trials int, seed uint64) SweepConfig {
	ncom := processors / 4
	if ncom < 1 {
		ncom = 1
	}
	return SweepConfig{
		Cells:      []Cell{{Tasks: processors, Ncom: ncom, Wmin: 3}},
		Heuristics: []string{"mct", "mct*", "emct", "emct*"},
		Scenarios:  scenarios,
		Trials:     trials,
		Options:    ScenarioOptions{Processors: processors},
		Seed:       seed,
	}
}

// Figure2Series extracts, for each named heuristic, its average dfb per
// wmin value (ascending), ready for plotting. A heuristic absent from every
// wmin bucket is omitted from the series map; individual missing samples are
// NaN (never 0, which would read as "tied-best").
func Figure2Series(res *SweepResult, heuristics []string) (wmins []int, series map[string][]float64) {
	for wmin := range res.ByWmin {
		wmins = append(wmins, wmin)
	}
	sort.Ints(wmins)
	series = make(map[string][]float64, len(heuristics))
	for _, h := range heuristics {
		ys := make([]float64, len(wmins))
		any := false
		for i, wmin := range wmins {
			v, ok := rowValue(res.ByWmin[wmin], h)
			if ok {
				any = true
			}
			ys[i] = v
		}
		if any {
			series[h] = ys
		}
	}
	return wmins, series
}

// rowValue looks a heuristic up in a ranking. Absent heuristics report
// (NaN, false) so callers cannot mistake missing data for a perfect score.
func rowValue(rows []TableRow, name string) (float64, bool) {
	for _, r := range rows {
		if r.Name == name {
			return r.AvgDFB, true
		}
	}
	return math.NaN(), false
}
