package volatile

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/avail"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/trace"
)

// writeTraceFile records one synthetic trace set of p vectors × n slots,
// writes it through trace.Set.Write, and returns the path plus the vector
// specs (for the in-memory comparison path).
func writeTraceFile(t *testing.T, dir string, seed uint64, p, n int) (string, []string) {
	t.Helper()
	gen := rng.New(seed)
	set := &trace.Set{Vectors: make([]avail.Vector, p)}
	specs := make([]string, p)
	for i := 0; i < p; i++ {
		proc, err := trace.NewSynthProcess(gen.Split(), trace.SynthOptions{Style: trace.Pareto})
		if err != nil {
			t.Fatal(err)
		}
		set.Vectors[i] = avail.Record(proc, n)
		specs[i] = set.Vectors[i].String()
	}
	path := filepath.Join(dir, "trace.volatrace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, specs
}

// TestTraceSweepFileRoundTrip is the ingestion round-trip guard:
// trace.Record → Set.Write to disk → a sweep with Trace.Files must
// reproduce, bit for bit, the digest of the in-memory path (traced
// scenarios on the same vectors, aggregated in the sweep's sequential order). Any
// divergence means serialization, parsing, model fitting or the sharded
// pipeline changed what the scheduler sees.
func TestTraceSweepFileRoundTrip(t *testing.T) {
	const (
		procs     = 5
		traceLen  = 120
		scenarios = 2
		trials    = 3
		seed      = uint64(4242)
	)
	cells := []Cell{{Tasks: 4, Ncom: 3, Wmin: 1}, {Tasks: 6, Ncom: 2, Wmin: 2}}
	heuristics := []string{"emct", "mct*", "random1w"}
	opt := ScenarioOptions{Processors: procs, Iterations: 2}

	dirA, dirB := t.TempDir(), t.TempDir()
	fileA, specsA := writeTraceFile(t, dirA, 7, procs, traceLen)
	fileB, specsB := writeTraceFile(t, dirB, 8, procs, traceLen)
	files := []string{fileA, fileB}
	specs := [][]string{specsA, specsB}

	// On-disk path: the sweep reads the files back and replays them.
	res, err := RunSweep(SweepConfig{
		Cells:      cells,
		Heuristics: heuristics,
		Scenarios:  scenarios,
		Trials:     trials,
		Options:    opt,
		Seed:       seed,
		Trace:      &TraceSource{Files: files},
	})
	if err != nil {
		t.Fatal(err)
	}

	// In-memory path: the same instances, sequentially, through scenarios
	// traced on the original (never-serialized) vectors, aggregated in the exact
	// chunk/trial order RunSweep commits in.
	overall := stats.NewAggregator()
	byWmin := make(map[int]*stats.Aggregator)
	byCell := make(map[Cell]*stats.Aggregator)
	censored := 0
	rn := NewRunner()
	for c, cell := range cells {
		for s := 0; s < scenarios; s++ {
			scn := NewScenario(deriveSeed(seed, uint64(c), uint64(s), 0xA11CE), cell, opt)
			for tr := 0; tr < trials; tr++ {
				trialSeed := deriveSeed(seed, uint64(c), uint64(s), uint64(tr))
				ir := &stats.InstanceResult{
					Makespans: make(map[string]int),
					Censored:  make(map[string]bool),
				}
				traced, err := scn.Traced(specs[tr%len(specs)])
				if err != nil {
					t.Fatal(err)
				}
				for _, h := range heuristics {
					r, err := traced.RunWith(rn, h, trialSeed)
					if err != nil {
						t.Fatal(err)
					}
					ir.Makespans[h] = r.Makespan
					if !r.Completed {
						ir.Censored[h] = true
						censored++
					}
				}
				overall.Add(ir)
				bw := byWmin[cell.Wmin]
				if bw == nil {
					bw = stats.NewAggregator()
					byWmin[cell.Wmin] = bw
				}
				bw.Add(ir)
				bc := byCell[cell]
				if bc == nil {
					bc = stats.NewAggregator()
					byCell[cell] = bc
				}
				bc.Add(ir)
			}
		}
	}
	want := &SweepResult{
		Instances: overall.Instances(),
		Overall:   overall.Rows(),
		ByWmin:    make(map[int][]TableRow, len(byWmin)),
		ByCell:    make(map[Cell][]TableRow, len(byCell)),
		Censored:  censored,
	}
	for wmin, agg := range byWmin {
		want.ByWmin[wmin] = agg.Rows()
	}
	for cell, agg := range byCell {
		want.ByCell[cell] = agg.Rows()
	}

	if got, expect := formatSweep(res), formatSweep(want); got != expect {
		t.Errorf("file-ingestion sweep diverged from the in-memory traced path:\nfile path:\n%s\nin-memory path:\n%s",
			got, expect)
	}
	if res.Instances != len(cells)*scenarios*trials {
		t.Errorf("aggregated %d instances, want %d", res.Instances, len(cells)*scenarios*trials)
	}
}

// TestTraceSweepFileWorkerCountDeterminism extends the worker-count
// property to file-driven sweeps: reading recorded sets from disk and
// fitting their models once per scenario must stay independent of the
// worker count.
func TestTraceSweepFileWorkerCountDeterminism(t *testing.T) {
	dir := t.TempDir()
	file, _ := writeTraceFile(t, dir, 11, 6, 100)
	mk := func(workers int) string {
		res, err := RunSweep(SweepConfig{
			Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 10, Ncom: 5, Wmin: 2}},
			Heuristics: []string{"emct", "mct*", "random2w"},
			Scenarios:  2,
			Trials:     2,
			Options:    ScenarioOptions{Processors: 6, Iterations: 2},
			Seed:       2027,
			Workers:    workers,
			Trace:      &TraceSource{Files: []string{file}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Instances == 0 {
			t.Fatal("file-driven trace sweep aggregated no instances")
		}
		return formatSweep(res)
	}
	ref := mk(1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := mk(workers); got != ref {
			t.Errorf("file-driven trace sweep with %d workers diverged:\nworkers=1:\n%s\nworkers=%d:\n%s",
				workers, ref, workers, got)
		}
	}
}

// TestTraceSweepFileValidation exercises the fail-fast ingestion paths.
func TestTraceSweepFileValidation(t *testing.T) {
	dir := t.TempDir()
	base := SweepConfig{
		Cells:      []Cell{{Tasks: 4, Ncom: 3, Wmin: 1}},
		Heuristics: []string{"mct"},
		Scenarios:  1,
		Trials:     1,
		Options:    ScenarioOptions{Processors: 4, Iterations: 1},
		Seed:       1,
	}

	cfg := base
	cfg.Trace = &TraceSource{Files: []string{filepath.Join(dir, "missing.volatrace")}}
	if _, err := RunSweep(cfg); err == nil {
		t.Error("missing trace file accepted")
	}

	bad := filepath.Join(dir, "corrupt.volatrace")
	if err := os.WriteFile(bad, []byte("not a trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = base
	cfg.Trace = &TraceSource{Files: []string{bad}}
	if _, err := RunSweep(cfg); err == nil {
		t.Error("corrupt trace file accepted")
	}

	// Vector-count mismatch: 6 vectors for a 4-processor sweep.
	mismatch, _ := writeTraceFile(t, t.TempDir(), 3, 6, 50)
	cfg = base
	cfg.Trace = &TraceSource{Files: []string{mismatch}}
	if _, err := RunSweep(cfg); err == nil {
		t.Error("processor-count mismatch accepted")
	}

	// Too short to fit models.
	short := filepath.Join(dir, "short.volatrace")
	if err := os.WriteFile(short, []byte("volatrace 4 1\nu\nu\nu\nu\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = base
	cfg.Trace = &TraceSource{Files: []string{short}}
	if _, err := RunSweep(cfg); err == nil {
		t.Error("too-short trace vectors accepted")
	}
}
