package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	volatile "repro"
	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simCounters is what the traced replay records from the engine layers.
type simCounters struct {
	runs, slots, censored       int64
	crashes, copies, replicas   int64
	computeSlots, wastedCompute int64
	availSamples                int64
	core                        coreCounters
}

// replay re-runs the sweep instance by instance, in the sweep's own chunk
// order, with every scheduler and availability process wrapped by a
// counting decorator and a span around every scenario generation and
// engine run. It mirrors volatile's pooled runner: one engine, one trial
// pool and one pooled scheduler per contender, reseeded exactly as the
// sweep reseeds them. The returned result must carry the sweep's digest.
func (s sweepSpec) replay(tr *tracer, parent int, sc *simCounters) (*volatile.SweepResult, error) {
	opt := s.cfg.Options
	if opt.MaxReplicas < 0 {
		return nil, errors.New("replay does not mirror the replication-disable switch")
	}
	wo := workload.Options{P: opt.Processors, Iterations: opt.Iterations, CommScale: opt.CommScale,
		MaxReplicas: opt.MaxReplicas, MaxSlots: opt.MaxSlots}
	heuristics := s.heuristics()

	type pooled struct {
		pcg   rng.PCG
		sched sim.Scheduler
	}
	scheds := make(map[string]*pooled, len(heuristics))
	var engine sim.Runner
	var trialRng rng.PCG
	var trials workload.TrialPool

	overall := stats.NewAggregator()
	byWmin := make(map[int]*stats.Aggregator)
	byCell := make(map[volatile.Cell]*stats.Aggregator)
	censored := 0
	for c, cell := range s.cfg.Cells {
		if byWmin[cell.Wmin] == nil {
			byWmin[cell.Wmin] = stats.NewAggregator()
		}
		byCell[cell] = stats.NewAggregator()
		for scen := 0; scen < s.cfg.Scenarios; scen++ {
			chunk := tr.begin("volatile.chunk", parent)
			gen := tr.begin("workload.gen", chunk)
			scn := workload.Generate(rng.New(s.scenarioSeed(c, scen)),
				workload.Cell{N: cell.Tasks, Ncom: cell.Ncom, Wmin: cell.Wmin}, wo)
			tr.end(gen)
			for t := 0; t < s.cfg.Trials; t++ {
				inst := tr.begin("volatile.instance", chunk)
				ir := &stats.InstanceResult{Makespans: make(map[string]int), Censored: make(map[string]bool)}
				seed := s.trialSeed(c, scen, t)
				for _, h := range heuristics {
					trialRng.Reseed(seed)
					procs := trials.Trial(scn, &trialRng)
					ps := scheds[h]
					if ps == nil {
						ps = &pooled{}
						scheds[h] = ps
					}
					trialRng.SplitInto(&ps.pcg)
					sched := ps.sched
					if sched == nil {
						inner, err := core.New(h, &ps.pcg)
						if err != nil {
							return nil, err
						}
						sched = wrapScheduler(inner, &sc.core)
						if sim.PoolSafe(sched) {
							ps.sched = sched
						}
					}
					wrapped := make([]avail.Process, len(procs))
					for i, p := range procs {
						wrapped[i] = wrapProcess(p, &sc.availSamples)
					}
					run := tr.begin("sim.run", inst)
					res, err := engine.Run(sim.Config{Platform: scn.Platform, Params: scn.Params,
						Procs: wrapped, Scheduler: sched, Mode: s.cfg.Mode})
					tr.end(run)
					if err != nil {
						return nil, fmt.Errorf("%s on %s: %w", h, scn.Name, err)
					}
					sc.runs++
					sc.slots += int64(res.Makespan)
					sc.crashes += int64(res.Stats.Crashes)
					sc.copies += int64(res.Stats.CopiesStarted)
					sc.replicas += int64(res.Stats.ReplicasStarted)
					sc.computeSlots += res.Stats.ComputeSlots
					sc.wastedCompute += res.Stats.WastedComputeSlots
					ir.Makespans[h] = res.Makespan
					if !res.Completed {
						ir.Censored[h] = true
						sc.censored++
						censored++
					}
				}
				tr.end(inst)
				for _, a := range []*stats.Aggregator{overall, byWmin[cell.Wmin], byCell[cell]} {
					a.Add(ir)
				}
			}
			tr.end(chunk)
		}
	}
	out := &volatile.SweepResult{
		Instances: overall.Instances(),
		Overall:   overall.Rows(),
		ByWmin:    make(map[int][]volatile.TableRow, len(byWmin)),
		ByCell:    make(map[volatile.Cell][]volatile.TableRow, len(byCell)),
		Censored:  censored,
	}
	for w, a := range byWmin {
		out.ByWmin[w] = a.Rows()
	}
	for cell, a := range byCell {
		out.ByCell[cell] = a.Rows()
	}
	return out, nil
}

// sweepLayers accumulates the untraced reference sweeps and the traced
// replays of one traced run.
type sweepLayers struct {
	sim       simCounters
	sweepTime time.Duration // untraced reference sweeps, kernel passes excluded
	tail      time.Duration // after each sweep's last instance: final commit and result assembly
	replay    time.Duration // traced replays
	instances int
	chunks    []float64 // chunk latencies (ms) from Progress timestamps
}

// traceSweep runs one untraced reference sweep and its traced replay, and
// checks that both produced the same result digest. It returns the digest.
func (l *sweepLayers) traceSweep(e env, tr *tracer, root int, s sweepSpec) (string, error) {
	id := tr.begin("volatile.sweep", root)
	t, err := s.timedSweep(e.k)
	tr.end(id)
	if err != nil {
		return "", err
	}
	l.sweepTime += t.wall
	l.tail += t.wall - t.marks[len(t.marks)-1]
	l.instances += t.res.Instances
	prev := time.Duration(0)
	for i := s.cfg.Trials - 1; i < len(t.marks); i += s.cfg.Trials {
		l.chunks = append(l.chunks, ms(t.marks[i]-prev))
		prev = t.marks[i]
	}

	id = tr.begin("perfbench.replay", root)
	res, err := s.replay(tr, id, &l.sim)
	l.replay += tr.end(id)
	if err != nil {
		return "", err
	}
	want := t.res.Digest()
	if got := res.Digest(); got != want {
		return "", fmt.Errorf("traced replay digest %.12s differs from the sweep's %.12s", got, want)
	}
	return want, nil
}

// set reports the sweep-side per-layer metrics.
func (l *sweepLayers) set(rep *report, tr *tracer) {
	sc := &l.sim
	gen := tr.total("workload.gen")
	run := tr.total("sim.run")
	pick := sc.core.pickTime()
	rep.set("workload.gen_ms", ms(gen), "ms")
	rep.set("avail.samples", float64(sc.availSamples), "count")
	rep.set("avail.samples_per_slot", ratio(float64(sc.availSamples), float64(sc.slots)), "count")
	rep.set("sim.runs", float64(sc.runs), "count")
	rep.set("sim.slots", float64(sc.slots), "count")
	rep.set("sim.run_ms", ms(run), "ms")
	rep.set("sim.self_ns_per_slot", ratio(float64(run-pick), float64(sc.slots)), "ns")
	rep.set("sim.censored_runs", float64(sc.censored), "count")
	rep.set("sim.crashes", float64(sc.crashes), "count")
	rep.set("sim.copies_started", float64(sc.copies), "count")
	rep.set("sim.replicas_started", float64(sc.replicas), "count")
	rep.set("sim.useful_compute_ratio", 1-ratio(float64(sc.wastedCompute), float64(sc.computeSlots)), "ratio")
	rep.set("core.picks", float64(sc.core.picks), "count")
	rep.set("core.pick_ms", ms(pick), "ms")
	rep.set("core.pick_ns", ratio(float64(pick), float64(sc.core.picks)), "ns")
	rep.set("core.declines", float64(sc.core.declines), "count")
	rep.set("core.cancels", float64(sc.core.cancels), "count")
	rep.set("volatile.sweep_ms", ms(l.sweepTime), "ms")
	// The pipeline's time outside instance runs: scenario generation, which
	// the sweep does up front, plus the final commit and result assembly
	// after the last instance. Subtracting the traced runs from the
	// untraced sweep instead would mostly measure the tracing overhead.
	rep.set("volatile.overhead_ms", ms(gen+l.tail), "ms")
	rep.set("volatile.chunks", float64(len(l.chunks)), "count")
	p90 := median(l.chunks) // too few chunks for a p90 with ten beyond it
	if v, _, _, ok := percentile(l.chunks, 90); ok {
		p90 = v
	}
	rep.set("volatile.chunk_ms_p90", p90, "ms")
	rep.set("volatile.chunk_ms_max", maxOf(l.chunks), "ms")
	rep.set("trace.instances_per_s", ratio(float64(l.instances), l.replay.Seconds()), "1/s")
	rep.set("trace.overhead_pct", 100*(ratio(l.replay.Seconds(), l.sweepTime.Seconds())-1), "%")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// tracedSweep is the traced run of a sweep workload: the reference sweep
// and its traced replay, a second sweep on two workers that must reproduce
// the digest, and the service layers driven with the workload's own
// request.
func tracedSweep(e env, spec sweepSpec) (*report, error) {
	rep := &report{Correct: true}
	tr := newTracer()
	root := tr.begin("perfbench.traced", 0)
	var layers sweepLayers
	digest, err := layers.traceSweep(e, tr, root, spec)
	if err != nil {
		return nil, err
	}
	rep.Attempted += 2 * spec.instances()
	if want := pinnedDigests[e.workload]; e.seed == defaultSeed && want != "" {
		rep.check(digest == want, "digest %s, pinned %s", digest, want)
	}
	res, err := spec.run(2, nil)
	if err != nil {
		return nil, err
	}
	rep.Attempted += spec.instances()
	rep.check(res.Digest() == digest, "two-worker digest %.12s differs from one-worker %.12s", res.Digest(), digest)
	layers.set(rep, tr)

	if err := serviceLayers(e, tr, root, serviceRequest(e.workload, e.seed), nil, time.Second, rep); err != nil {
		return nil, err
	}
	tr.end(root)
	path := filepath.Join(e.scratch, fmt.Sprintf("spans-%s-seed%d.jsonl", e.workload, e.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	rep.note("%s seed %d traced: digest %s equal for the sweep, its traced replay and two workers; spans in %s",
		e.workload, e.seed, digest, path)
	rep.note("tracing overhead: replay %.2f s vs untraced sweep %.2f s", layers.replay.Seconds(), layers.sweepTime.Seconds())
	return rep, nil
}
