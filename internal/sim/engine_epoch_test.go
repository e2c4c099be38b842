package sim_test

import (
	"sync"
	"testing"

	"repro/internal/avail"
	"repro/internal/rng"
	"repro/internal/sim"
)

// epochProbe is a scheduler that verifies the change-tracking contract the
// engine promises to incremental scorers, on every single Pick of a real
// run:
//
//   - View.Epoch is strictly increasing across view revisions and shared by
//     all Picks of one round;
//   - View.Run is constant within a run;
//   - rs.Picks equals the assignments accepted since the round started;
//   - and the core promise: a processor whose ProcEpochs stamp did not move
//     has a bit-identical ProcView.
type epochProbe struct {
	t *testing.T

	run        int64
	lastEpoch  int64
	prevProcs  []sim.ProcView
	prevEpochs []int64
	seen       bool

	roundEpoch int64
	roundPicks int

	picks  int
	rounds int
}

func (p *epochProbe) Name() string { return "epoch-probe" }

func (p *epochProbe) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	t := p.t
	if v.Epoch == 0 || len(v.ProcEpochs) != len(v.Procs) {
		t.Errorf("slot %d: engine view without change tracking (epoch %d, %d stamps for %d procs)",
			v.Slot, v.Epoch, len(v.ProcEpochs), len(v.Procs))
		return eligible[0]
	}
	if p.seen && v.Run == p.run {
		if v.Epoch < p.lastEpoch {
			t.Errorf("slot %d: epoch went backwards (%d after %d)", v.Slot, v.Epoch, p.lastEpoch)
		}
		for q := range v.Procs {
			if v.ProcEpochs[q] == p.prevEpochs[q] && v.Procs[q] != p.prevProcs[q] {
				t.Errorf("slot %d: processor %d changed without an epoch bump: %+v -> %+v",
					v.Slot, q, p.prevProcs[q], v.Procs[q])
			}
		}
	}
	if !p.seen || v.Run != p.run {
		p.run = v.Run
		p.seen = true
		p.roundEpoch = 0
	}
	if v.Epoch != p.roundEpoch {
		p.roundEpoch = v.Epoch
		p.roundPicks = 0
		p.rounds++
	}
	if rs.Picks != p.roundPicks {
		t.Errorf("slot %d: rs.Picks = %d, want %d (accepted assignments this round)",
			v.Slot, rs.Picks, p.roundPicks)
	}
	p.lastEpoch = v.Epoch
	if cap(p.prevProcs) < len(v.Procs) {
		p.prevProcs = make([]sim.ProcView, len(v.Procs))
		p.prevEpochs = make([]int64, len(v.Procs))
	}
	p.prevProcs = p.prevProcs[:len(v.Procs)]
	p.prevEpochs = p.prevEpochs[:len(v.Procs)]
	copy(p.prevProcs, v.Procs)
	copy(p.prevEpochs, v.ProcEpochs)

	p.roundPicks++ // the engine accepts this pick (eligible[0] is valid)
	p.picks++
	return eligible[0]
}

// TestViewChangeTrackingContract runs the probe over random scenarios and a
// reused Runner: every Pick of every run checks the epoch / run-stamp /
// Picks-counter promises incremental scorers build on.
func TestViewChangeTrackingContract(t *testing.T) {
	runner := sim.NewRunner()
	probe := &epochProbe{t: t}
	var runs []int64
	for seed := uint64(0); seed < 25; seed++ {
		cfg := randomScenarioConfig(t, seed, "emct")
		cfg.Scheduler = probe
		if _, err := runner.Run(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runs = append(runs, probe.run)
	}
	if probe.picks == 0 || probe.rounds == 0 {
		t.Fatal("probe never consulted; scenarios too degenerate")
	}
	for i := 1; i < len(runs); i++ {
		if runs[i] <= runs[i-1] {
			t.Fatalf("run stamps not strictly increasing across runs: %v", runs)
		}
	}
}

// TestSlowCheckOracleCatchesMissedDirtyMark mutation-tests the view oracle:
// with one markDirty site deliberately suppressed for one worker, the
// slow-check comparison against the full rebuild must panic — otherwise a
// rotted dirty-set contract (stale ProcViews, stale ProcEpochs) would ship
// silently.
func TestSlowCheckOracleCatchesMissedDirtyMark(t *testing.T) {
	caughtOne := false
	for seed := uint64(0); seed < 20 && !caughtOne; seed++ {
		caughtOne = func() (caught bool) {
			defer func() {
				if recover() != nil {
					caught = true
				}
			}()
			runner := sim.NewRunner()
			runner.EnableSlowChecks()
			runner.MutateSkipDirty(1)
			cfg := randomScenarioConfig(t, seed, "emct")
			if _, err := runner.Run(cfg); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return caught
		}()
	}
	if !caughtOne {
		t.Fatal("oracle never caught the suppressed dirty mark")
	}
}

// epochRecorder is a scheduler that records every distinct View.Epoch its
// Picks see, in order.
type epochRecorder struct{ epochs []int64 }

func (r *epochRecorder) Name() string { return "epoch-recorder" }

func (r *epochRecorder) Pick(v *sim.View, eligible []int, _ *sim.RoundState, _ sim.TaskInfo) int {
	if n := len(r.epochs); n == 0 || r.epochs[n-1] != v.Epoch {
		r.epochs = append(r.epochs, v.Epoch)
	}
	return eligible[0]
}

// TestEpochBlocksUnique runs engines on concurrent goroutines, each
// reserving its epochs from the shared counter a block at a time, and
// requires every epoch any of them hands out to be non-zero, strictly
// increasing within its engine and unique across all of them — the
// collision-freedom incremental scorers rely on when a scheduler instance
// moves between engines. Each engine runs until it has crossed several
// blocks, so block refills race with the other engines' refills.
func TestEpochBlocksUnique(t *testing.T) {
	const engines = 4
	var cfgs []sim.Config
	for seed := uint64(0); seed < 40; seed++ {
		cfgs = append(cfgs, randomScenarioConfig(t, seed, "emct"))
	}
	recs := make([]*epochRecorder, engines)
	errs := make([]error, engines)
	var wg sync.WaitGroup
	for g := range recs {
		recs[g] = &epochRecorder{}
		wg.Add(1)
		go func(rec *epochRecorder, errp *error) {
			defer wg.Done()
			runner := sim.NewRunner()
			for i := 0; len(rec.epochs) < 3*sim.EpochBlock; i++ {
				cfg := cfgs[i%len(cfgs)]
				r := rng.New(uint64(i))
				cfg.Procs = make([]avail.Process, cfg.Platform.P())
				for q, proc := range cfg.Platform.Processors {
					cfg.Procs[q] = proc.Avail.NewProcess(r.Split(), avail.Up)
				}
				cfg.Scheduler = rec
				if _, err := runner.Run(cfg); err != nil {
					*errp = err
					return
				}
			}
		}(recs[g], &errs[g])
	}
	wg.Wait()
	seen := make(map[int64]int)
	for g, rec := range recs {
		if errs[g] != nil {
			t.Fatalf("engine %d: %v", g, errs[g])
		}
		for k, e := range rec.epochs {
			if e <= 0 {
				t.Fatalf("engine %d handed out epoch %d", g, e)
			}
			if k > 0 && e <= rec.epochs[k-1] {
				t.Fatalf("engine %d: epoch %d after %d", g, e, rec.epochs[k-1])
			}
			if other, dup := seen[e]; dup {
				t.Fatalf("epoch %d handed out by engines %d and %d", e, other, g)
			}
			seen[e] = g
		}
	}
}
