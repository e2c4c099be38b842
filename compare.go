package volatile

// DFRS-style experiments: the batch-scheduling baselines of internal/batch
// run head-to-head against the paper's fractional heuristics ("Dynamic
// Fractional Resource Scheduling vs. Batch Scheduling", Casanova, Stillwell,
// Vivien). CompareSweep confronts, per instance, every fractional heuristic
// AND every batch discipline with the same availability trajectories, so the
// dfb metric directly prices batch allocation against fine-grained
// scheduling; BatchSweep ranks the batch disciplines alone. Both run through
// runSharded — per-worker shard aggregation, chunk-order merge — so results
// are bit-identical for every worker count, exactly like RunSweep.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/batch"
	"repro/internal/faultinject"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Batch discipline names. They appear as row names in sweep results,
// alongside the heuristic names they are compared against.
const (
	// BatchFCFS is strict-order batch dispatch (head-of-line blocking).
	BatchFCFS = "batch-fcfs"
	// BatchEASY is FCFS dispatch plus EASY backfilling.
	BatchEASY = "batch-easy"
)

// BatchDisciplines lists every implemented batch discipline name.
func BatchDisciplines() []string { return []string{BatchFCFS, BatchEASY} }

// parseDiscipline resolves a discipline name.
func parseDiscipline(name string) (batch.Discipline, error) {
	switch name {
	case BatchFCFS:
		return batch.FCFS, nil
	case BatchEASY:
		return batch.EASY, nil
	}
	return 0, fmt.Errorf("volatile: unknown batch discipline %q (want %q or %q)",
		name, BatchFCFS, BatchEASY)
}

// CompareConfig describes a DFRS-style comparison sweep: the grid cells,
// the fractional heuristics and the batch disciplines to confront on
// identical instances.
type CompareConfig struct {
	// Cells are the (n, ncom, wmin) combinations to cover.
	Cells []Cell
	// Heuristics are the fractional heuristic names (default: all 17).
	// BatchSweep ignores this field.
	Heuristics []string
	// Disciplines are the batch discipline names (default: both).
	Disciplines []string
	// Scenarios is the number of random scenarios per cell.
	Scenarios int
	// Trials is the number of availability draws per scenario.
	Trials int
	// Options tunes scenario generation (CommScale etc.). MaxReplicas only
	// affects the fractional side; batch jobs are never replicated.
	Options ScenarioOptions
	// Mode selects the engine time base for the fractional side (default
	// ModeSlot). The batch side always runs its own slot-exact simulator;
	// Mode does not affect it.
	Mode Mode
	// Seed makes the whole sweep reproducible.
	Seed uint64
	// Workers bounds parallelism (default: GOMAXPROCS).
	Workers int
	// Progress, when non-nil, receives (completedInstances, totalInstances);
	// see SweepConfig.Progress for the concurrency contract.
	Progress func(done, total int)
	// Checkpoint, Stop, MaxRetries, RetryBackoff, ContinueOnError and
	// Faults mirror the SweepConfig fields of the same names: crash-safe
	// checkpointing, graceful interrupt and the failure policy.
	Checkpoint      *CheckpointConfig
	Stop            <-chan struct{}
	MaxRetries      int
	RetryBackoff    time.Duration
	ContinueOnError bool
	Faults          *faultinject.Plan
}

// compareDisciplines resolves and validates the discipline list.
func compareDisciplines(names []string) ([]string, []batch.Discipline, error) {
	if len(names) == 0 {
		names = BatchDisciplines()
	}
	ds := make([]batch.Discipline, len(names))
	for i, name := range names {
		d, err := parseDiscipline(name)
		if err != nil {
			return nil, nil, err
		}
		ds[i] = d
	}
	return names, ds, nil
}

// CompareSweep executes the batch-vs-fractional comparison. Every instance
// first runs each fractional heuristic, then each batch discipline, all on
// the same availability trajectories (the trial seed re-materializes the
// same world for every contender, exactly as RunSweep does across
// heuristics), so the per-instance best — and with it each row's dfb — is
// taken over the union of both scheduler families.
func CompareSweep(cfg CompareConfig) (*SweepResult, error) {
	heuristics, err := sweepHeuristics(cfg.Cells, cfg.Scenarios, cfg.Trials, cfg.Heuristics)
	if err != nil {
		return nil, err
	}
	return compareSharded(cfg, heuristics)
}

// BatchSweep ranks the batch disciplines alone: a CompareSweep with no
// fractional contenders. Use it to study FCFS-vs-EASY head to head before
// pricing both against the paper's heuristics.
func BatchSweep(cfg CompareConfig) (*SweepResult, error) {
	if err := validateSweepShape(cfg.Cells, cfg.Scenarios, cfg.Trials); err != nil {
		return nil, err
	}
	return compareSharded(cfg, nil)
}

// comparePlan resolves the discipline list and canonicalizes the sweep into
// its config digest, shared by compareSharded and CompareConfig.ConfigDigest.
// CompareSweep and BatchSweep share this plan but are distinct sweeps: an
// empty heuristic list (BatchSweep) hashes differently from any resolved
// CompareSweep list, and the discipline names ride along as digest extras.
func comparePlan(cfg CompareConfig, heuristics []string) (discNames []string, discs []batch.Discipline, digest string, err error) {
	discNames, discs, err = compareDisciplines(cfg.Disciplines)
	if err != nil {
		return nil, nil, "", err
	}
	extra := make([]string, len(discNames))
	for i, name := range discNames {
		extra[i] = "discipline " + name
	}
	digest = sweepConfigDigest("comparesweep", cfg.Cells, heuristics,
		cfg.Scenarios, cfg.Trials, cfg.Options, cfg.Mode, cfg.Seed, extra...)
	return discNames, discs, digest, nil
}

// compareSharded is the shared body of CompareSweep and BatchSweep:
// heuristics may be empty, disciplines may not.
func compareSharded(cfg CompareConfig, heuristics []string) (*SweepResult, error) {
	discNames, discs, digest, err := comparePlan(cfg, heuristics)
	if err != nil {
		return nil, err
	}
	return runSharded(shardedSweep{
		cells:     cfg.Cells,
		scenarios: cfg.Scenarios,
		trials:    cfg.Trials,
		options:   cfg.Options,
		seed:      cfg.Seed,
		workers:   cfg.Workers,
		progress:  cfg.Progress,
		control: sweepControl{
			digest:          digest,
			checkpoint:      cfg.Checkpoint,
			stop:            cfg.Stop,
			faults:          cfg.Faults,
			maxRetries:      cfg.MaxRetries,
			retryBackoff:    cfg.RetryBackoff,
			continueOnError: cfg.ContinueOnError,
		},
		newRunner: func() instanceRunner {
			rn := NewRunner()
			rn.SetMode(cfg.Mode)
			brn := batch.NewRunner()
			return func(scn *Scenario, cellIdx, scenIdx, trialIdx int, ir *stats.InstanceResult) (int, error) {
				trialSeed := deriveSeed(cfg.Seed, uint64(cellIdx), uint64(scenIdx), uint64(trialIdx))
				nCens := 0
				for _, h := range heuristics {
					res, err := scn.RunWith(rn, h, trialSeed)
					if err != nil {
						return 0, fmt.Errorf("volatile: %s on %s: %w", h, scn.inner.Name, err)
					}
					ir.Makespans[h] = res.Makespan
					if !res.Completed {
						ir.Censored[h] = true
						nCens++
					}
				}
				for i, d := range discs {
					res, err := scn.runBatch(rn, brn, d, trialSeed)
					if err != nil {
						return 0, fmt.Errorf("volatile: %s on %s: %w", discNames[i], scn.inner.Name, err)
					}
					ir.Makespans[discNames[i]] = res.Makespan
					if !res.Completed {
						ir.Censored[discNames[i]] = true
						nCens++
					}
				}
				return nCens, nil
			}
		},
	})
}

// runBatch executes one batch run on the trajectories the given trial seed
// denotes — the same world every fractional heuristic of that (scenario,
// trial) instance faces. rn supplies the pooled trial resources: the batch
// engine samples slot by slot, so it replays rn's per-slot tape, shared
// with slot-mode contenders of the same instance. brn is the pooled batch
// engine.
func (s *Scenario) runBatch(rn *Runner, brn *batch.Runner, d batch.Discipline, trialSeed uint64) (*batch.Result, error) {
	return brn.Run(batch.Config{
		Platform:   s.inner.Platform,
		Params:     s.inner.Params,
		Procs:      rn.trial(s, trialSeed, ModeSlot),
		Discipline: d,
	})
}

// RunBatch executes one batch-discipline run on the scenario (name:
// BatchFCFS or BatchEASY) against the same world the fractional
// heuristics see for this trial seed — the single-run entry point behind
// CompareSweep, for walkthroughs and spot checks.
func (s *Scenario) RunBatch(discipline string, trialSeed uint64) (*RunResult, error) {
	d, err := parseDiscipline(discipline)
	if err != nil {
		return nil, err
	}
	trialRng := rng.New(trialSeed)
	procs := s.inner.Trial(trialRng)
	res, err := batch.Run(batch.Config{
		Platform:   s.inner.Platform,
		Params:     s.inner.Params,
		Procs:      procs,
		Discipline: d,
	})
	if err != nil {
		return nil, err
	}
	// Surface the batch outcome through the common RunResult shape so
	// callers compare makespans uniformly; batch-specific counters live in
	// batch.Result and are not carried over.
	return &RunResult{
		Completed:     res.Completed,
		Makespan:      res.Makespan,
		IterationEnds: res.IterationEnds,
	}, nil
}

// CompareCellRow is one grid cell of a batch-vs-fractional report: the best
// average dfb achieved by each family in that cell and the gap between
// them (positive gap = batch trails fractional).
type CompareCellRow struct {
	// Cell is the grid cell.
	Cell Cell
	// BestFractional / BestBatch name the family winners in this cell.
	BestFractional, BestBatch string
	// FractionalDFB / BatchDFB are the winners' average dfb (percent,
	// against the per-instance best over BOTH families). NaN when the
	// family has no rows in the cell.
	FractionalDFB, BatchDFB float64
	// Gap is BatchDFB − FractionalDFB.
	Gap float64
}

// CompareCells condenses a CompareSweep result into per-cell
// batch-vs-fractional columns: for every cell, the best fractional row
// versus the best batch row. Cells are ordered by (Tasks, Ncom, Wmin).
func CompareCells(res *SweepResult) []CompareCellRow {
	isBatch := func(name string) bool {
		_, err := parseDiscipline(name)
		return err == nil
	}
	cells := make([]Cell, 0, len(res.ByCell))
	for c := range res.ByCell {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Tasks != cells[j].Tasks {
			return cells[i].Tasks < cells[j].Tasks
		}
		if cells[i].Ncom != cells[j].Ncom {
			return cells[i].Ncom < cells[j].Ncom
		}
		return cells[i].Wmin < cells[j].Wmin
	})
	out := make([]CompareCellRow, 0, len(cells))
	for _, c := range cells {
		row := CompareCellRow{Cell: c, FractionalDFB: math.NaN(), BatchDFB: math.NaN()}
		// Rows are sorted by ascending dfb, so the first hit per family is
		// that family's winner.
		for _, r := range res.ByCell[c] {
			if isBatch(r.Name) {
				if row.BestBatch == "" {
					row.BestBatch, row.BatchDFB = r.Name, r.AvgDFB
				}
			} else if row.BestFractional == "" {
				row.BestFractional, row.FractionalDFB = r.Name, r.AvgDFB
			}
		}
		row.Gap = row.BatchDFB - row.FractionalDFB
		out = append(out, row)
	}
	return out
}
