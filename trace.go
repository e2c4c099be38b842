package volatile

// Trace-driven availability: traced scenarios (Scenario.Traced), which
// replay explicit availability vectors instead of sampling the Markov
// model, and TraceSource, the sweep availability source that replays
// synthetic or recorded trace sets. The paper's conclusion proposes
// challenging the Markov assumption with real availability traces;
// internal/trace supplies FTA-style synthetic generators and the fitting
// code, and this file wires them into the public API.
//
// A sweep fits models once per trace set it replays: a synthetic set is
// unique per (scenario, trial) and shared by that instance's heuristics, a
// recorded set once per (scenario, file) for the scenario's chunk (see
// instanceTrace).

import (
	"fmt"
	"os"

	"repro/internal/avail"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TraceStyle selects the synthetic sojourn-distribution family of trace
// sweeps (re-exported from the internal trace package).
type TraceStyle = trace.FTAStyle

// Supported synthetic trace families.
const (
	// TraceWeibull draws Weibull sojourns with shape 0.6 (heavy tail).
	TraceWeibull = trace.Weibull
	// TracePareto draws Pareto sojourns with tail index 2.5.
	TracePareto = trace.Pareto
	// TraceLogNormal draws log-normal sojourns with sigma 1.2.
	TraceLogNormal = trace.LogNormal
)

// Traced returns the scenario with explicit availability vectors (letters
// u/r/d, one string per processor): the same processors, speeds and run
// parameters, but every trial replays the vectors verbatim (then holds
// their last state), and the platform carries Markov models fitted to each
// vector, which the informed heuristics consult, mirroring a master that
// estimated behaviour from history. Vector count must match the processor
// count. Each call parses and fits anew, so reuse the returned scenario to
// run several heuristics or seeds on one trace set. Trace replay consumes
// no RNG, so deterministic heuristics produce bit-identical results in
// both time bases; see EXPERIMENTS.md.
func (s *Scenario) Traced(vectors []string) (*Scenario, error) {
	if len(vectors) != s.inner.Platform.P() {
		return nil, fmt.Errorf("volatile: %d vectors for %d processors",
			len(vectors), s.inner.Platform.P())
	}
	parsed := make([]avail.Vector, len(vectors))
	for i, spec := range vectors {
		v, err := avail.ParseVector(spec)
		if err != nil {
			return nil, fmt.Errorf("volatile: vector %d: %w", i, err)
		}
		parsed[i] = v
	}
	return s.replaying(parsed)
}

// replaying builds the traced scenario replaying already-parsed vectors:
// the per-processor belief models fitted to them, on a platform keeping the
// scenario's speeds. Shared by the explicit-vector and sweep paths so the
// two cannot diverge.
func (s *Scenario) replaying(vectors []avail.Vector) (*Scenario, error) {
	pl := &platform.Platform{Processors: make([]*platform.Processor, len(vectors))}
	for i, v := range vectors {
		fitted, err := trace.FitMarkov3(v)
		if err != nil {
			return nil, fmt.Errorf("volatile: vector %d: %w", i, err)
		}
		orig := s.inner.Platform.Processors[i]
		pl.Processors[i] = &platform.Processor{ID: i, W: orig.W, Avail: fitted}
	}
	inner := &workload.Scenario{Name: s.inner.Name, Platform: pl, Params: s.inner.Params}
	return &Scenario{inner: inner, vectors: vectors}, nil
}

// vectorProcs rewinds the pooled replay processes onto the given vectors.
// The returned slice is valid until the next call.
func (tt *trialTape) vectorProcs(vectors []avail.Vector) []avail.Process {
	p := len(vectors)
	if cap(tt.vprocs) < p {
		tt.vprocs = make([]avail.VectorProcess, p)
		tt.vps = make([]avail.Process, p)
	}
	tt.vprocs, tt.vps = tt.vprocs[:p], tt.vps[:p]
	for i, v := range vectors {
		tt.vprocs[i].Reset(v)
		tt.vps[i] = &tt.vprocs[i]
	}
	return tt.vps
}

// TraceSource is a sweep's trace-driven availability source: every
// instance replays one trace set, Markov models fitted to it are the
// master's belief, and every heuristic of the instance faces the same
// replayed vectors. Trace replay consumes no RNG, so trial seeds confront
// both time bases with identical worlds; see EXPERIMENTS.md for when
// results match bit for bit.
type TraceSource struct {
	// Style selects the synthetic sojourn family (default TraceWeibull).
	// Ignored when Files is set.
	Style TraceStyle
	// Len is the recorded length of each synthetic vector in slots
	// (default 1000; past the end, processors hold their last state).
	// Ignored when Files is set.
	Len int
	// Files, when non-empty, replaces synthetic generation with recorded
	// trace sets read from disk (the format trace.Set.Write produces —
	// e.g. converted Failure Trace Archive data, or the output of
	// cmd/volatrace). Trial t of every scenario replays
	// Files[t mod len(Files)]; models are fitted once per (scenario, file),
	// kept for the scenario's chunk of trials. Every file must hold exactly
	// Options.Processors vectors (default 20) of length >= 2, and its
	// content, not its path, enters the config digest, so a resume against
	// an edited file is rejected.
	Files []string
}

// traceSeedSalt separates trace-generation streams from trial streams.
const traceSeedSalt = 0x7ACE5

// resolveTrace loads the source's recorded sets, or fixes the synthetic
// trace length, and returns the digest extras pinning the source: the
// sojourn family and length for synthetic traces, the full vector content
// of recorded sets (paths alone would let an edited file poison a resume).
func (p *sweepPlan) resolveTrace(src *TraceSource, opt ScenarioOptions) ([]string, error) {
	if len(src.Files) > 0 {
		procs := opt.Processors
		if procs == 0 {
			procs = workload.DefaultProcessors
		}
		var err error
		if p.sets, err = loadTraceSets(src.Files, procs); err != nil {
			return nil, err
		}
		return traceSetDigests(p.sets)
	}
	p.traceLen = src.Len
	if p.traceLen == 0 {
		p.traceLen = 1000
	}
	if p.traceLen < 2 {
		return nil, fmt.Errorf("volatile: trace length %d too short to fit models (need >= 2)", p.traceLen)
	}
	return []string{fmt.Sprintf("style %s", src.Style), fmt.Sprintf("tracelen %d", p.traceLen)}, nil
}

// instanceTrace returns the traced scenario of one instance. Recorded sets
// repeat across trials when Trials > len(Files), so fitted holds the
// chunk's fits, one per file index, filled on first use: one fit per
// (scenario, file). Each (scenario, trial) has a unique synthetic set,
// shared by every heuristic of the instance directly, so it is built
// unkept and dies with the instance.
func (p *sweepPlan) instanceTrace(scn *Scenario, fitted []*Scenario, cfg *SweepConfig, cellIdx, scenIdx, trialIdx int) (*Scenario, error) {
	if p.sets != nil {
		idx := trialIdx % len(p.sets)
		if fitted[idx] == nil {
			ts, err := scn.replaying(p.sets[idx].Vectors)
			if err != nil {
				return nil, err
			}
			fitted[idx] = ts
		}
		return fitted[idx], nil
	}
	genSeed := deriveSeed(cfg.Seed, uint64(cellIdx), uint64(scenIdx), uint64(trialIdx), traceSeedSalt)
	gen := rng.New(genSeed)
	vectors := make([]avail.Vector, scn.inner.Platform.P())
	for i := range vectors {
		proc, err := trace.NewSynthProcess(gen.Split(), trace.SynthOptions{Style: cfg.Trace.Style})
		if err != nil {
			return nil, fmt.Errorf("volatile: trace style: %w", err)
		}
		vectors[i] = avail.Record(proc, p.traceLen)
	}
	return scn.replaying(vectors)
}

// loadTraceSets reads and validates every trace file up front, so a
// misconfigured sweep fails before any simulation work: each file must
// parse (trace.Read), hold exactly p vectors, and be long enough to fit
// Markov models on.
func loadTraceSets(paths []string, p int) ([]*trace.Set, error) {
	sets := make([]*trace.Set, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("volatile: trace file: %w", err)
		}
		set, err := trace.Read(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("volatile: trace file %s: %w", path, err)
		}
		if got := len(set.Vectors); got != p {
			return nil, fmt.Errorf("volatile: trace file %s has %d vectors for %d processors",
				path, got, p)
		}
		if set.Len() < 2 {
			return nil, fmt.Errorf("volatile: trace file %s: vectors of length %d too short to fit models (need >= 2)",
				path, set.Len())
		}
		sets[i] = set
	}
	return sets, nil
}
