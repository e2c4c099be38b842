package main

import (
	"testing"

	volatile "repro"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweepreq"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed, so the helper must sort
	}
	return xs
}

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n          int
		maxP       float64
		wantV      float64
		wantP      float64
		wantBeyond int
	}{
		{n: 2000, maxP: 99, wantV: 1980, wantP: 99, wantBeyond: 20},
		{n: 1010, maxP: 99, wantV: 1000, wantP: 100 * 1000.0 / 1010, wantBeyond: 10},
		{n: 120, maxP: 99, wantV: 110, wantP: 100 * 110.0 / 120, wantBeyond: 10},
		{n: 20, maxP: 50, wantV: 10, wantP: 50, wantBeyond: 10},
		{n: 19, maxP: 50, wantV: 9, wantP: 100 * 9.0 / 19, wantBeyond: 10},
	} {
		v, p, n, ok := percentile(seq(tc.n), tc.maxP)
		if !ok || v != tc.wantV || p != tc.wantP || n != tc.n {
			t.Errorf("percentile(%d samples, p%v) = %v at p%v over %d (ok=%v), want %v at p%v",
				tc.n, tc.maxP, v, p, n, ok, tc.wantV, tc.wantP)
		}
		if beyond := tc.n - int(v); beyond != tc.wantBeyond {
			t.Errorf("%d samples: %d beyond the reported value, want %d", tc.n, beyond, tc.wantBeyond)
		}
	}
	if _, _, _, ok := percentile(seq(10), 50); ok {
		t.Error("10 samples: a percentile with ten samples beyond it was reported")
	}
}

// plainScheduler has none of the optional scheduler interfaces.
type plainScheduler struct{}

func (plainScheduler) Name() string                                             { return "plain" }
func (plainScheduler) Pick(*sim.View, []int, *sim.RoundState, sim.TaskInfo) int { return 0 }

// nextOnly is an availability process without the Trajectory view.
type nextOnly struct{}

func (nextOnly) Next() avail.State { return avail.Up }

func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	var c coreCounters
	cancellers := 0
	for _, name := range append(core.AllNamesSorted(), "plain") {
		var inner sim.Scheduler = plainScheduler{}
		if name != "plain" {
			var err error
			if inner, err = core.New(name, rng.New(1)); err != nil {
				t.Fatal(err)
			}
		}
		w := wrapScheduler(inner, &c)
		_, innerCancels := inner.(sim.Canceller)
		if innerCancels {
			cancellers++
		}
		_, wrapCancels := w.(sim.Canceller)
		_, innerPools := inner.(sim.Poolable)
		_, wrapPools := w.(sim.Poolable)
		if innerCancels != wrapCancels || innerPools != wrapPools || sim.PoolSafe(inner) != sim.PoolSafe(w) {
			t.Errorf("%s: wrapper Canceller=%v Poolable=%v PoolSafe=%v, inner %v %v %v", name,
				wrapCancels, wrapPools, sim.PoolSafe(w), innerCancels, innerPools, sim.PoolSafe(inner))
		}
		if w.Name() != inner.Name() {
			t.Errorf("%s: wrapper is named %q", name, w.Name())
		}
	}
	if cancellers == 0 {
		t.Error("no registered heuristic is a sim.Canceller; the pass-through went untested")
	}

	var n int64
	m := avail.MustMarkov3([3][3]float64{{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.2, 0.1, 0.7}})
	if _, ok := wrapProcess(m.NewProcess(rng.New(1), avail.Up), &n).(avail.Trajectory); !ok {
		t.Error("wrapped Markov process lost avail.Trajectory")
	}
	if _, ok := wrapProcess(avail.NewVectorProcess(avail.Vector{avail.Up}), &n).(avail.Trajectory); !ok {
		t.Error("wrapped vector process lost avail.Trajectory")
	}
	p := wrapProcess(nextOnly{}, &n)
	if _, ok := p.(avail.Trajectory); ok {
		t.Error("a Next-only process became an avail.Trajectory")
	}
	p.Next()
	if n != 1 {
		t.Errorf("counted %d samples, want 1", n)
	}
}

func TestTracedReplayMatchesSweep(t *testing.T) {
	table2 := func(mode volatile.Mode) sweepSpec {
		cfg := volatile.Table2Config(1, 2, 7)
		cfg.Cells = cfg.Cells[:4]
		cfg.Mode = mode
		return sweepSpec{cfg: cfg}
	}
	large := volatile.LargePConfig(64, 1, 2, 7)
	large.Options.Iterations = 1
	large.Mode = volatile.ModeEvent
	contention, err := specForRequest(sweepreq.Request{Exp: "table3x10", Mode: "event", Scenarios: 1, Trials: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for name, spec := range map[string]sweepSpec{
		"table2 slot":  table2(volatile.ModeSlot),
		"table2 event": table2(volatile.ModeEvent),
		"largep event": {cfg: large},
		"table3x10":    contention,
	} {
		res, err := spec.run(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		var sc simCounters
		tr := newTracer()
		got, err := spec.replay(tr, tr.begin("test", 0), &sc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Digest() != res.Digest() {
			t.Errorf("%s: traced replay digest %.12s, sweep %.12s", name, got.Digest(), res.Digest())
		}
		wantRuns := int64(spec.instances() * len(spec.heuristics()))
		if sc.runs != wantRuns || sc.core.picks == 0 || sc.availSamples == 0 {
			t.Errorf("%s: %d runs, %d picks, %d samples; want %d runs and nonzero counts",
				name, sc.runs, sc.core.picks, sc.availSamples, wantRuns)
		}
		if n := len(tr.durations("sim.run")); int64(n) != wantRuns {
			t.Errorf("%s: %d sim.run spans, want %d", name, n, wantRuns)
		}
	}
}

func TestSpotChecksPass(t *testing.T) {
	for workload := range pinnedSpotDigests {
		rep := &report{Correct: true}
		if err := specFor(workload, 5).spotCheck(rep, workload); err != nil {
			t.Fatal(err)
		}
		if !rep.Correct {
			t.Errorf("%s: %v", workload, rep.notes)
		}
	}
}

func TestKernelIsFixedWork(t *testing.T) {
	k := newKernel()
	if a, b := k.simulate(), k.simulate(); a != b || a == 0 {
		t.Errorf("kernel passes computed %d and %d, want the same nonzero result", a, b)
	}
}
