package volatile

// Crash-safe sweeps. A sweep with a CheckpointConfig periodically persists
// the committer's exact running state (internal/checkpoint) at chunk
// boundaries; a killed process resumes from the watermark and produces
// output bit-identical to an uninterrupted run. The checkpoint is bound to
// a canonical config digest so stale or mismatched state can never be
// resumed into the wrong sweep.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/stats"
	"repro/internal/trace"
)

// DefaultCheckpointEvery is the default chunk interval between checkpoint
// writes when CheckpointConfig.Every is zero.
const DefaultCheckpointEvery = 16

// CheckpointConfig enables crash-safe sweeps: the sweep committer persists
// its state to Path every Every committed chunks (atomically: a crash
// mid-write leaves the previous checkpoint intact), plus once more when the
// sweep finishes or is interrupted.
type CheckpointConfig struct {
	// Path is the checkpoint file location (required).
	Path string
	// Every is the chunk interval between periodic checkpoint writes
	// (default DefaultCheckpointEvery). Smaller values lose less work on a
	// crash and cost more I/O. Negative values are rejected up front — a
	// typo must not silently change the checkpoint cadence.
	Every int
	// Resume, when true, loads Path before sweeping and skips the chunks it
	// records as committed. A checkpoint whose config digest or chunk count
	// does not match the sweep is rejected; a missing file starts the sweep
	// from scratch (so a resume command is safe to run unconditionally).
	Resume bool
	// OnSave, when set, is called after each successful checkpoint write
	// with exactly what ReadCheckpoint would read back from Path. It runs
	// on the committer goroutine, so a slow callback holds up the sweep. A
	// failed write calls nothing; it only adds a warning to the result.
	OnSave func(st *CheckpointStatus)
}

// InterruptedError reports a sweep stopped gracefully through its Stop
// channel: the final checkpoint holds every committed chunk, and rerunning
// the same config with Checkpoint.Resume continues from there.
type InterruptedError struct {
	// Path is the checkpoint file holding the committed state ("" when the
	// sweep was stopped without a checkpoint configured).
	Path string
	// Committed and Chunks report resume progress: chunks [0, Committed)
	// of Chunks are persisted.
	Committed, Chunks int
}

func (e *InterruptedError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("volatile: sweep interrupted after %d/%d chunks (no checkpoint configured; progress lost)",
			e.Committed, e.Chunks)
	}
	return fmt.Sprintf("volatile: sweep interrupted after %d/%d chunks; checkpoint %s holds the committed state (resume with Checkpoint.Resume)",
		e.Committed, e.Chunks, e.Path)
}

// sweepConfigDigest canonicalizes everything that determines a sweep's
// numeric output into a SHA-256 hex digest. Execution knobs that cannot
// change the result — Workers, Progress, checkpoint placement, the
// ContinueOnError failure policy, fault plans — are deliberately excluded,
// so a sweep may be resumed under different parallelism or with fault
// injection removed.
func sweepConfigDigest(flavour string, cells []Cell, heuristics []string,
	scenarios, trials int, opt ScenarioOptions, mode Mode, seed uint64, extra ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "sweep-config v1\nflavour %s\nseed %d\nmode %s\nscenarios %d\ntrials %d\n",
		flavour, seed, mode, scenarios, trials)
	fmt.Fprintf(h, "options %d %d %d %d %d\n",
		opt.Processors, opt.Iterations, opt.CommScale, opt.MaxReplicas, opt.MaxSlots)
	fmt.Fprintf(h, "cells %d\n", len(cells))
	for _, c := range cells {
		fmt.Fprintf(h, "cell %d %d %d\n", c.Tasks, c.Ncom, c.Wmin)
	}
	fmt.Fprintf(h, "heuristics %d\n", len(heuristics))
	for _, name := range heuristics {
		fmt.Fprintf(h, "h %s\n", name)
	}
	for _, e := range extra {
		fmt.Fprintf(h, "extra %s\n", e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceSetDigests hashes the content of each recorded trace set, so a
// resumed trace sweep refuses checkpoints taken against different traces
// even when the file paths match.
func traceSetDigests(sets []*trace.Set) ([]string, error) {
	out := make([]string, len(sets))
	for i, set := range sets {
		h := sha256.New()
		if err := set.Write(h); err != nil {
			return nil, fmt.Errorf("volatile: hashing trace set %d: %w", i, err)
		}
		out[i] = "tracefile " + hex.EncodeToString(h.Sum(nil))
	}
	return out, nil
}

// aggKeyWmin / aggKeyCell name the keyed aggregates inside a checkpoint.
func aggKeyWmin(wmin int) string { return fmt.Sprintf("wmin %d", wmin) }

func aggKeyCell(c Cell) string {
	return fmt.Sprintf("cell %d %d %d", c.Tasks, c.Ncom, c.Wmin)
}

// sweepAggregates is the committer's state: the overall, per-wmin and
// per-cell aggregates plus the censored-run and failed-instance counts.
// RunSweep folds chunks into it in chunk order, checkpoints carry it
// bit-exactly, and ReadCheckpoint renders a restored one.
type sweepAggregates struct {
	overall  *stats.Aggregator
	byWmin   map[int]*stats.Aggregator
	byCell   map[Cell]*stats.Aggregator
	censored int
	failed   int
}

func newSweepAggregates() *sweepAggregates {
	return &sweepAggregates{
		overall: stats.NewAggregator(),
		byWmin:  make(map[int]*stats.Aggregator),
		byCell:  make(map[Cell]*stats.Aggregator),
	}
}

// commit folds one chunk of cell into the aggregates, its instances in
// trial order. The cell's keyed aggregates exist once any of its chunks
// commits, even one whose every instance failed.
func (a *sweepAggregates) commit(cell Cell, c *chunkResult) {
	bw := a.byWmin[cell.Wmin]
	if bw == nil {
		bw = stats.NewAggregator()
		a.byWmin[cell.Wmin] = bw
	}
	bc := a.byCell[cell]
	if bc == nil {
		bc = stats.NewAggregator()
		a.byCell[cell] = bc
	}
	for _, ir := range c.instances {
		a.overall.Add(ir)
		bw.Add(ir)
		bc.Add(ir)
	}
	a.censored += c.censored
	a.failed += c.failed
}

// snapshot captures the aggregates at a chunk boundary: chunks [0, next)
// of the sweep's chunks are folded in.
func (a *sweepAggregates) snapshot(digest string, chunks, next int) *checkpoint.Snapshot {
	s := &checkpoint.Snapshot{
		ConfigDigest: digest,
		Chunks:       chunks,
		NextChunk:    next,
		Censored:     a.censored,
		Failed:       a.failed,
		Overall:      a.overall.State(),
		Keyed:        make(map[string]stats.AggregatorState, len(a.byWmin)+len(a.byCell)),
	}
	for wmin, agg := range a.byWmin {
		s.Keyed[aggKeyWmin(wmin)] = agg.State()
	}
	for cell, agg := range a.byCell {
		s.Keyed[aggKeyCell(cell)] = agg.State()
	}
	return s
}

// restore replaces the aggregates with a snapshot's. Digest and chunk
// count are the caller's to check; here only the keyed-aggregate names
// must parse.
func (a *sweepAggregates) restore(s *checkpoint.Snapshot) error {
	*a = *newSweepAggregates()
	a.overall = stats.FromState(s.Overall)
	a.censored, a.failed = s.Censored, s.Failed
	for key, st := range s.Keyed {
		var wmin int
		var cell Cell
		if n, _ := fmt.Sscanf(key, "wmin %d", &wmin); n == 1 {
			a.byWmin[wmin] = stats.FromState(st)
			continue
		}
		if n, _ := fmt.Sscanf(key, "cell %d %d %d", &cell.Tasks, &cell.Ncom, &cell.Wmin); n == 3 {
			a.byCell[cell] = stats.FromState(st)
			continue
		}
		return fmt.Errorf("volatile: checkpoint has unknown aggregate key %q", key)
	}
	return nil
}

// result renders the aggregates as a SweepResult.
func (a *sweepAggregates) result() *SweepResult {
	res := &SweepResult{
		Instances:       a.overall.Instances(),
		Overall:         a.overall.Rows(),
		ByWmin:          make(map[int][]TableRow, len(a.byWmin)),
		ByCell:          make(map[Cell][]TableRow, len(a.byCell)),
		Censored:        a.censored,
		FailedInstances: a.failed,
	}
	for wmin, agg := range a.byWmin {
		res.ByWmin[wmin] = agg.Rows()
	}
	for cell, agg := range a.byCell {
		res.ByCell[cell] = agg.Rows()
	}
	return res
}

// Format renders every field of the sweep's numeric output deterministically
// and at full float precision: heuristic rows overall, per wmin (ascending)
// and per cell (ordered by Tasks, Ncom, Wmin). Two sweeps produce equal
// Format output iff their results are bit-identical, which makes it the
// anchor for golden digests and crash/resume equivalence checks. Robustness
// bookkeeping (FailedInstances, InstanceErrors, Warnings) is deliberately
// excluded: they describe how the sweep ran, not what it computed.
func (res *SweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instances=%d censored=%d\n", res.Instances, res.Censored)
	writeRows := func(label string, rows []TableRow) {
		fmt.Fprintf(&b, "[%s]\n", label)
		for _, r := range rows {
			fmt.Fprintf(&b, "%s %s %d\n", r.Name, strconv.FormatFloat(r.AvgDFB, 'g', -1, 64), r.Wins)
		}
	}
	writeRows("overall", res.Overall)
	wmins := make([]int, 0, len(res.ByWmin))
	for w := range res.ByWmin {
		wmins = append(wmins, w)
	}
	sort.Ints(wmins)
	for _, w := range wmins {
		writeRows(fmt.Sprintf("wmin=%d", w), res.ByWmin[w])
	}
	for _, c := range res.sortedCells() {
		writeRows(c.String(), res.ByCell[c])
	}
	return b.String()
}

// sortedCells returns the cells of ByCell ordered by (Tasks, Ncom, Wmin).
func (res *SweepResult) sortedCells() []Cell {
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
	return cells
}

// Digest is the SHA-256 hex of Format — the sweep's result fingerprint.
// Equal digests mean bit-identical numeric output; it is what the golden
// tests pin and what `volabench -digest` prints for crash/resume checks.
func (res *SweepResult) Digest() string {
	sum := sha256.Sum256([]byte(res.Format()))
	return hex.EncodeToString(sum[:])
}
