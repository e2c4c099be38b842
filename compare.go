package volatile

// Batch contenders: the batch-scheduling baselines of "Dynamic Fractional
// Resource Scheduling vs. Batch Scheduling" (Casanova, Stillwell, Vivien),
// run head-to-head against the paper's fractional heuristics. They are
// schedulers of the same engine (core.NewBatch), so a sweep whose contender
// list names them runs them on the same availability trajectories as its
// heuristics, and the dfb metric directly prices batch allocation against
// fine-grained scheduling; a list of disciplines alone ranks them head to
// head. CompareCells condenses such a result into per-cell family winners.

import (
	"math"

	"repro/internal/core"
)

// Batch discipline names, accepted wherever a heuristic name is (Run,
// RunWith, SweepConfig.Heuristics). They appear as row names in sweep
// results, alongside the heuristic names they are compared against. A batch
// discipline runs in the time base of its Runner or sweep, on the same
// replayed world as the heuristics of its instance.
const (
	// BatchFCFS is strict-order batch dispatch (head-of-line blocking).
	BatchFCFS = core.BatchFCFS
	// BatchEASY is FCFS dispatch plus EASY backfilling.
	BatchEASY = core.BatchEASY
)

// BatchDisciplines lists every implemented batch discipline name.
func BatchDisciplines() []string { return core.BatchNames() }

// isBatch reports whether name is a batch discipline.
func isBatch(name string) bool { return name == BatchFCFS || name == BatchEASY }

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
	cells := res.sortedCells()
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
