package volatile

// Batch contenders: the batch-scheduling baselines of internal/batch, run
// head-to-head against the paper's fractional heuristics ("Dynamic
// Fractional Resource Scheduling vs. Batch Scheduling", Casanova, Stillwell,
// Vivien). A sweep whose contender list names batch disciplines runs them
// on the same availability trajectories as its heuristics, so the dfb
// metric directly prices batch allocation against fine-grained scheduling;
// a list of disciplines alone ranks them head to head. CompareCells
// condenses such a result into per-cell family winners.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/batch"
	"repro/internal/rng"
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
// heuristics see for this trial seed — the single-run form of a batch
// contender, for walkthroughs and spot checks.
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

// CompareCells condenses the result of a sweep with both kinds of
// contender into per-cell batch-vs-fractional columns: for every cell, the
// best fractional row versus the best batch row. Cells are ordered by
// (Tasks, Ncom, Wmin).
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
