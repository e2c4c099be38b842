package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	volatile "repro"
	"repro/internal/rng"
	"repro/internal/sweepreq"
)

// defaultSeed is the workload seed the pinned digests below belong to.
const defaultSeed = 1

// pinnedDigests are the result digests of the sweep workloads at
// defaultSeed. A mismatch means the program's results changed.
var pinnedDigests = map[string]string{
	"table2-slot":  "bbc63ceb3213371bb931a5c4c78a521de4a0df1cf5c25c8200ba1e07fb2e58a0",
	"table2-event": "64fc126615394b955908282865f26033aa3f623ce760e61412d82c9944746fa7",
	"largep-event": "cfe9dabdc20b604b895eb34eb843dfe6cd1706561bcb2435ad8d8736fd8ce07d",
}

// largeP sizes largep-event: P = 10k processors and n = P tasks, one
// iteration per run so that an instance (four contenders) takes about a
// second and every run holds twenty of them.
const (
	largeP          = 10000
	largeScenarios  = 4
	largeTrials     = 5
	largeIterations = 1
)

// sweepSpec is one sweep workload: the config the traced replay mirrors and,
// for the Table 2 workloads, the request volabench would build for it.
type sweepSpec struct {
	cfg volatile.SweepConfig
	req *sweepreq.Request
}

func specFor(workload string, seed uint64) sweepSpec {
	switch workload {
	case "largep-event":
		cfg := volatile.LargePConfig(largeP, largeScenarios, largeTrials, seed)
		cfg.Options.Iterations = largeIterations
		cfg.Mode = volatile.ModeEvent
		return sweepSpec{cfg: cfg}
	default: // table2-slot, table2-event
		mode := "slot"
		if workload == "table2-event" {
			mode = "event"
		}
		// Two scenarios per cell: the seed moves the cost of a one-scenario
		// sweep by too much for a steady rate (README.md).
		req := sweepreq.Request{Exp: "table2", Mode: mode, Scenarios: 2, Trials: 1, Seed: seed, Workers: 1}
		cfg := volatile.Table2Config(req.Scenarios, req.Trials, seed)
		cfg.Mode, _ = volatile.ParseMode(mode)
		return sweepSpec{cfg: cfg, req: &req}
	}
}

func (s sweepSpec) heuristics() []string {
	if len(s.cfg.Heuristics) > 0 {
		return s.cfg.Heuristics
	}
	return volatile.Heuristics()
}

func (s sweepSpec) instances() int { return len(s.cfg.Cells) * s.cfg.Scenarios * s.cfg.Trials }

// run executes the sweep the way its CLI does: the Table 2 workloads through
// sweepreq exactly as `volabench -exp table2`, largep-event through
// volatile.RunSweep (sweepreq has no iterations knob).
func (s sweepSpec) run(workers int, progress func(done, total int)) (*volatile.SweepResult, error) {
	if s.req != nil {
		req := *s.req
		req.Workers = workers
		built, err := sweepreq.Build(req)
		if err != nil {
			return nil, err
		}
		return built.Run(sweepreq.RunOpts{Progress: progress})
	}
	cfg := s.cfg
	cfg.Workers, cfg.Progress = workers, progress
	return volatile.RunSweep(cfg)
}

// deriveSeed mirrors the sweep pipeline's unexported seed derivation, so the
// set-up pass and the traced replay draw the sweep's own instances. The
// traced run proves the mirror right by matching the sweep's digest.
func deriveSeed(parts ...uint64) uint64 {
	s := rng.SplitMix64(0x9E3779B97F4A7C15)
	acc := s.Next()
	for _, p := range parts {
		sp := rng.SplitMix64(acc ^ p)
		acc = sp.Next()
	}
	return acc
}

// scenarioSeed and trialSeed are the sweep's per-chunk and per-instance seeds.
func (s sweepSpec) scenarioSeed(cell, scen int) uint64 {
	return deriveSeed(s.cfg.Seed, uint64(cell), uint64(scen), 0xA11CE)
}

func (s sweepSpec) trialSeed(cell, scen, trial int) uint64 {
	return deriveSeed(s.cfg.Seed, uint64(cell), uint64(scen), uint64(trial))
}

// setupOnce is the work a sweep does before its first instance result:
// build the request and its digest, generate every scenario and, on the
// Table 2 grid, run the first instance with every contender on a fresh
// runner. largep-event (no request) stops after generation: there one
// instance is a second of computation whose cost moves with the seed by a
// fifth, which would swamp the set-up work.
func (s sweepSpec) setupOnce() error {
	if s.req != nil {
		if _, err := sweepreq.Build(*s.req); err != nil {
			return err
		}
	} else if _, err := s.cfg.ConfigDigest(); err != nil {
		return err
	}
	var first *volatile.Scenario
	for c, cell := range s.cfg.Cells {
		for sc := 0; sc < s.cfg.Scenarios; sc++ {
			scn := volatile.NewScenario(s.scenarioSeed(c, sc), cell, s.cfg.Options)
			if first == nil {
				first = scn
			}
		}
	}
	if s.req == nil {
		return nil
	}
	rn := volatile.NewRunner()
	rn.SetMode(s.cfg.Mode)
	for _, h := range s.heuristics() {
		if _, err := first.RunWith(rn, h, s.trialSeed(0, 0, 0)); err != nil {
			return err
		}
	}
	return nil
}

// sweepTiming is one timed sweep: per-instance latencies at the kernel's
// reference speed (seconds), the raw wall time, and Progress timestamps.
type sweepTiming struct {
	res   *volatile.SweepResult
	inst  []float64
	wall  time.Duration
	marks []time.Duration // Progress time of each instance since sweep start
}

// timedSweep runs the sweep on one worker. After every instance the
// Progress callback, which runs on the worker goroutine, times one kernel
// pass; each instance's latency excludes the kernel and is normalized by the
// mean of the passes before and after it.
func (s sweepSpec) timedSweep(k *kernel) (sweepTiming, error) {
	var t sweepTiming
	kPrev := k.sample()
	start := time.Now()
	last := start
	var kernelTime time.Duration
	res, err := s.run(1, func(done, total int) {
		now := time.Now()
		kNow := k.sample()
		t.inst = append(t.inst, normalize(now.Sub(last), (kPrev+kNow)/2).Seconds())
		t.marks = append(t.marks, now.Sub(start)-kernelTime)
		kPrev = kNow
		last = time.Now()
		kernelTime += last.Sub(now)
	})
	t.wall = time.Since(start) - kernelTime
	t.res = res
	return t, err
}

func sweepWorkload(e env, traced bool) (*report, error) {
	spec := specFor(e.workload, e.seed)
	if traced {
		return tracedSweep(e, spec)
	}
	rep := &report{Correct: true}

	// A set-up pass is short (~10 ms on Table 2, most of it process start;
	// ~50 ms at largep-event, mostly generating four 10k-processor
	// platforms into a fresh heap), so it takes many launches for a steady
	// median, and it slows with the host as process start does.
	passes := 41
	if e.workload == "largep-event" {
		passes = 21
	}
	setup, err := spawnSetup(e, passes)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	var reps []sweepTiming
	measureStart := time.Now()
	window := time.Duration(e.seconds) * time.Second
	for {
		t, err := spec.timedSweep(e.k)
		rep.Attempted += spec.instances()
		if err != nil {
			return nil, err
		}
		rep.Failed += t.res.FailedInstances
		reps = append(reps, t)
		// Start another repetition only if it fits in the window.
		if time.Since(measureStart)+t.wall+time.Duration(len(t.inst))*kernelRef > window {
			break
		}
	}
	// Peak RSS of the timed sweeps, before the spot checks below add theirs.
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	digest := reps[0].res.Digest()
	for i, t := range reps[1:] {
		rep.check(t.res.Digest() == digest, "repetition %d digest %.12s differs from %.12s", i+2, t.res.Digest(), digest)
	}
	if want := pinnedDigests[e.workload]; e.seed == defaultSeed && want != "" {
		rep.check(digest == want, "digest %s, pinned %s", digest, want)
	}
	rep.check(reps[0].res.Instances+reps[0].res.FailedInstances == spec.instances(),
		"%d instances aggregated, want %d", reps[0].res.Instances, spec.instances())
	if err := spec.spotCheck(rep, e.workload); err != nil {
		return nil, err
	}

	var inst []float64
	var wall time.Duration
	for _, t := range reps {
		inst = append(inst, t.inst...)
		wall += t.wall
	}
	// Throughput is instances over the summed instance time, so it weighs
	// every instance by its cost: a tenth of Table 2's instances take half
	// the sweep time. The latency metrics are the geometric mean, the typical
	// instance, which the seed moves less than a median or a tail (README.md).
	rate := float64(len(inst)) / sum(inst)
	typical := geomean(inst)
	contenders := float64(len(spec.heuristics()))
	rep.set("instances_per_s", rate, "1/s")
	rep.set("requests_per_s", contenders*rate, "1/s")
	rep.set("hit_p50_ms", 1000*typical/contenders, "ms")
	rep.set("cold_p50_ms", 1000*typical, "ms")
	rep.set("peak_rss_mb", rss, "MiB")
	rep.set("setup_s", setup, "s")

	rep.note("%s seed %d: %d sweep(s) of %d instances x %d contenders; wall %.2f s, at reference speed %.2f s",
		e.workload, e.seed, len(reps), spec.instances(), len(spec.heuristics()), wall.Seconds(), sum(inst))
	rep.note("result digest %s", digest)
	instP50, _, _, _ := percentile(inst, 50)
	rep.note("instance latency over %d instances: geometric mean %.2f ms, median %.2f ms",
		len(inst), 1000*typical, 1000*instP50)
	return rep, nil
}

// spotCells is how many Table 2 cells the spot checks run.
const spotCells = 8

// pinnedSpotDigests are the digests of spotSpec(defaultSeed).
var pinnedSpotDigests = map[string]string{
	"table2-slot":  "900c8e2e87711f2caa6e90f485632c6e9046494d7d529efbfaf3acaf91de708c",
	"table2-event": "8ea29e41adef7647235a87b9ae627d57dc599b2348eb71df8c16083469dc6240",
	"largep-event": "267471ca67e54d6f3aa0b558409a14b83227ecc780621ecda1a71e162f4c6bf8",
}

// spotSpec is a reduced copy of the sweep at the given seed: one scenario
// and one trial per cell and, on the Table 2 grid, spotCells cells spread
// over it from a seed-chosen offset.
func (s sweepSpec) spotSpec(seed uint64) sweepSpec {
	cfg := s.cfg
	cfg.Seed, cfg.Scenarios, cfg.Trials = seed, 1, 1
	if n := len(cfg.Cells); n > spotCells {
		stride := n / spotCells
		cells := make([]volatile.Cell, spotCells)
		for i := range cells {
			cells[i] = cfg.Cells[(int(seed%uint64(stride))+i*stride)%n]
		}
		cfg.Cells = cells
	}
	return sweepSpec{cfg: cfg}
}

// spotCheck runs two reduced sweeps whose checks can fail at any workload
// seed, unlike the full sweep's pinned digest. At the workload seed, the
// program's sweep pipeline and the benchmark's mirrored replay (replay.go)
// must agree: that catches a change to seeding, feeding, merging or
// aggregation. At defaultSeed, the pipeline must reproduce the pinned
// digest: that catches a change in the engine's results, which the mirror
// shares. The three runs go in parallel, after the measurement.
func (s sweepSpec) spotCheck(rep *report, workload string) error {
	spot := s.spotSpec(s.cfg.Seed)
	var res, mirrored, ref *volatile.SweepResult
	var errs [3]error
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		res, errs[0] = spot.run(1, nil)
	}()
	go func() {
		defer wg.Done()
		tr := newTracer()
		var sc simCounters
		mirrored, errs[1] = spot.replay(tr, tr.begin("perfbench.spot", 0), &sc)
	}()
	go func() {
		defer wg.Done()
		ref, errs[2] = s.spotSpec(defaultSeed).run(1, nil)
	}()
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return err
	}
	rep.check(res.Digest() == mirrored.Digest(), "spot check at seed %d: pipeline digest %.12s, mirrored replay %.12s",
		s.cfg.Seed, res.Digest(), mirrored.Digest())
	rep.check(ref.Digest() == pinnedSpotDigests[workload], "spot check at seed %d: digest %s, pinned %s",
		defaultSeed, ref.Digest(), pinnedSpotDigests[workload])
	rep.note("spot checks: %d instance(s) at seed %d through the pipeline and the mirrored replay; the same cut at seed %d against its pinned digest",
		spot.instances(), s.cfg.Seed, defaultSeed)
	return nil
}

// spawnSetup times n launches of this binary in set-up mode (process start,
// then setupOnce), each followed by a launch of true(1), and returns the
// median pass in seconds at the reference launch speed (see launchRef).
func spawnSetup(e env, n int) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	trueBin, err := exec.LookPath("true")
	if err != nil {
		return 0, err
	}
	var ds, ls []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-workload", e.workload, "-seed", strconv.FormatUint(e.seed, 10), "-setup-pass")
		cmd.Stderr = os.Stderr
		d, err := timeRun(cmd)
		if err != nil {
			return 0, err
		}
		l, err := timeRun(exec.Command(trueBin))
		if err != nil {
			return 0, err
		}
		ds, ls = append(ds, d), append(ls, l)
	}
	return scaleTo(seconds(median(ds)), seconds(median(ls)), launchRef).Seconds(), nil
}

// timeRun runs a command to its exit and returns its wall time in seconds.
func timeRun(cmd *exec.Cmd) (float64, error) {
	t0 := time.Now()
	err := cmd.Run()
	return time.Since(t0).Seconds(), err
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
