package volatile

// Trace-driven availability: runs against explicit availability vectors
// (RunTrace and friends), and TraceSource, the sweep availability source
// that replays synthetic or recorded trace sets instead of sampling the
// Markov model. The paper's conclusion proposes challenging the Markov
// assumption with real availability traces; internal/trace supplies
// FTA-style synthetic generators and the fitting code, and this file wires
// them into the public API.
//
// Fitting a Markov model to a vector and parsing vector specs are pure
// functions of the input, so each Scenario interns the derived artifacts —
// parsed vectors plus a platform carrying the fitted models — in a small
// keyed cache. The cache key is the full vector content, and a scenario
// rebuild invalidates everything because the cache lives on the Scenario
// itself. Repeated runs on the same explicit trace set (every heuristic
// comparison does this) then reuse one fit — and one interned analytics
// table (expect.Analytics) — instead of re-deriving both per run. A
// sweep's synthetic trace sets are unique per (scenario, trial) and shared
// across that instance's heuristics directly, so they bypass the cache
// rather than bloat it.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
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

// traceModels is one interned trace artifact set: the parsed availability
// vectors and a platform whose processors carry the Markov models fitted to
// them (the master's "belief" handed to informed heuristics). Both are
// immutable after construction and safe to share across goroutines.
type traceModels struct {
	vectors  []avail.Vector
	platform *platform.Platform
}

// traceCacheLimit bounds the per-scenario cache. Sweeps run every heuristic
// of an instance back to back on one trace set, so even a small cache gets
// a hit for all but the first run; the limit only caps memory when many
// distinct trace sets stream through one scenario.
const traceCacheLimit = 32

// traceCache interns traceModels per key. Safe for concurrent use.
type traceCache struct {
	mu      sync.Mutex
	entries map[string]*traceModels
}

// models returns the interned artifacts for key, building them on a miss.
// The build runs under the lock: duplicate fits would cost more than the
// brief contention, and sweep workers overwhelmingly hit distinct scenarios
// anyway.
func (c *traceCache) models(key string, build func() (*traceModels, error)) (*traceModels, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tm, ok := c.entries[key]; ok {
		return tm, nil
	}
	tm, err := build()
	if err != nil {
		return nil, err
	}
	if c.entries == nil {
		c.entries = make(map[string]*traceModels, traceCacheLimit)
	}
	if len(c.entries) >= traceCacheLimit {
		for k := range c.entries { // evict one arbitrary entry
			delete(c.entries, k)
			break
		}
	}
	c.entries[key] = tm
	return tm, nil
}

// RunTrace executes the named heuristic against explicit availability
// vectors (letters u/r/d, one string per processor; they replay verbatim and
// then hold their last state). The informed heuristics consult Markov models
// fitted to each vector, mirroring a master that estimated behaviour from
// history. Vector count must match the scenario's processor count. The
// fitted models are interned per scenario, so repeated runs on the same
// vectors (comparing heuristics, sweeping seeds) fit them only once.
func (s *Scenario) RunTrace(heuristic string, trialSeed uint64, vectors []string) (*RunResult, error) {
	return s.RunTraceWithEvents(heuristic, trialSeed, vectors, nil)
}

// RunTraceWith is RunTrace on a reusable Runner (nil falls back to a
// one-shot engine): replay processes and engine buffers are recycled across
// runs, results are identical.
func (s *Scenario) RunTraceWith(r *Runner, heuristic string, trialSeed uint64, vectors []string) (*RunResult, error) {
	tm, err := s.tracedModels(vectors)
	if err != nil {
		return nil, err
	}
	mode := ModeSlot
	if r != nil {
		mode = r.mode
	}
	return s.runTrace(r, tm, heuristic, trialSeed, mode, nil)
}

// RunTraceMode is RunTrace under an explicit engine time base. Trace
// replay consumes no RNG, so deterministic heuristics produce bit-identical
// results in both modes; see EXPERIMENTS.md for the full contract.
func (s *Scenario) RunTraceMode(heuristic string, trialSeed uint64, vectors []string, mode Mode) (*RunResult, error) {
	tm, err := s.tracedModels(vectors)
	if err != nil {
		return nil, err
	}
	return s.runTrace(nil, tm, heuristic, trialSeed, mode, nil)
}

// RunTraceWithEvents is RunTrace with an event callback for timelines.
func (s *Scenario) RunTraceWithEvents(heuristic string, trialSeed uint64, vectors []string,
	onEvent func(Event)) (*RunResult, error) {
	tm, err := s.tracedModels(vectors)
	if err != nil {
		return nil, err
	}
	return s.runTrace(nil, tm, heuristic, trialSeed, ModeSlot, onEvent)
}

// tracedModels resolves explicit vector specs through the scenario's
// intern cache, parsing and fitting on the first sighting only.
func (s *Scenario) tracedModels(vectors []string) (*traceModels, error) {
	if len(vectors) != s.inner.Platform.P() {
		return nil, fmt.Errorf("volatile: %d vectors for %d processors",
			len(vectors), s.inner.Platform.P())
	}
	key := "vec\x00" + strings.Join(vectors, "\x00")
	return s.traces.models(key, func() (*traceModels, error) {
		parsed := make([]avail.Vector, len(vectors))
		for i, spec := range vectors {
			v, err := avail.ParseVector(spec)
			if err != nil {
				return nil, fmt.Errorf("volatile: vector %d: %w", i, err)
			}
			parsed[i] = v
		}
		return fitTraceModels(s, parsed)
	})
}

// fitTraceModels builds the interned artifact set for a scenario from
// already-parsed vectors: the per-processor belief models fitted to them,
// on a platform keeping the scenario's speeds. Shared by the explicit-vector
// and synthetic-trace paths so the two cannot diverge.
func fitTraceModels(scn *Scenario, vectors []avail.Vector) (*traceModels, error) {
	pl := &platform.Platform{Processors: make([]*platform.Processor, len(vectors))}
	for i, v := range vectors {
		fitted, err := trace.FitMarkov3(v)
		if err != nil {
			return nil, fmt.Errorf("volatile: vector %d: %w", i, err)
		}
		orig := scn.inner.Platform.Processors[i]
		pl.Processors[i] = &platform.Processor{ID: i, W: orig.W, Avail: fitted}
	}
	return &traceModels{vectors: vectors, platform: pl}, nil
}

// runTrace executes one trace-driven run on interned models. With a Runner,
// the replay processes come from its pool; results are identical either way.
func (s *Scenario) runTrace(r *Runner, tm *traceModels, heuristic string, trialSeed uint64,
	mode Mode, onEvent func(Event)) (*RunResult, error) {
	var sched sim.Scheduler
	var err error
	if r != nil {
		// Pooled scheduler: Reseed mirrors the fresh rng.New construction.
		ps := r.pooled(heuristic)
		ps.pcg.Reseed(trialSeed)
		sched, err = ps.instance(heuristic)
	} else {
		sched, err = core.New(heuristic, rng.New(trialSeed))
	}
	if err != nil {
		return nil, err
	}
	var procs []avail.Process
	if r != nil {
		procs = r.vectorProcs(tm.vectors)
	} else {
		procs = make([]avail.Process, len(tm.vectors))
		for i, v := range tm.vectors {
			procs[i] = avail.NewVectorProcess(v)
		}
	}
	cfg := sim.Config{
		Platform:  tm.platform,
		Params:    s.inner.Params,
		Procs:     procs,
		Scheduler: sched,
		Mode:      mode,
		OnEvent:   onEvent,
	}
	if r == nil {
		return sim.Run(cfg)
	}
	return r.r.Run(cfg)
}

// vectorProcs rewinds the Runner's pooled replay processes onto the given
// vectors. The returned slice is valid until the next call.
func (r *Runner) vectorProcs(vectors []avail.Vector) []avail.Process {
	p := len(vectors)
	if cap(r.vprocs) < p {
		r.vprocs = make([]avail.VectorProcess, p)
		r.vps = make([]avail.Process, p)
	}
	r.vprocs, r.vps = r.vprocs[:p], r.vps[:p]
	for i, v := range vectors {
		r.vprocs[i].Reset(v)
		r.vps[i] = &r.vprocs[i]
	}
	return r.vps
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
	// Files[t mod len(Files)]; models are fitted once per (scenario, file)
	// through the per-scenario intern cache. Every file must hold exactly
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

// instanceTrace resolves the trace set of one instance and its fitted
// models. Recorded sets repeat across scenarios (and across trials when
// Trials > len(Files)), so their models are interned through the
// per-scenario cache: one fit per (scenario, file). Each (scenario, trial)
// has a unique synthetic set, shared by every heuristic of the instance
// directly, so interning it would only retain memory — it is built
// uncached and dies with the instance.
func (p *sweepPlan) instanceTrace(scn *Scenario, cfg *SweepConfig, cellIdx, scenIdx, trialIdx int) (*traceModels, error) {
	if p.sets != nil {
		return scn.fileTraceModels(p.sets, trialIdx%len(p.sets))
	}
	genSeed := deriveSeed(cfg.Seed, uint64(cellIdx), uint64(scenIdx), uint64(trialIdx), traceSeedSalt)
	return synthTraceModels(scn, genSeed, cfg.Trace.Style, p.traceLen)
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

// fileTraceModels resolves a recorded trace set through the scenario's
// intern cache, fitting the per-processor belief models on the first
// sighting only. The cache key is the file's index in the sweep's
// Trace.Files list — stable for the sweep's lifetime, which is exactly the
// cache's lifetime (it lives on the Scenario).
func (s *Scenario) fileTraceModels(sets []*trace.Set, idx int) (*traceModels, error) {
	key := "file\x00" + strconv.Itoa(idx)
	return s.traces.models(key, func() (*traceModels, error) {
		return fitTraceModels(s, sets[idx].Vectors)
	})
}

// synthTraceModels generates one synthetic trace set for a scenario and
// fits the per-processor belief models, entirely determined by genSeed.
func synthTraceModels(scn *Scenario, genSeed uint64, style TraceStyle, traceLen int) (*traceModels, error) {
	gen := rng.New(genSeed)
	p := scn.inner.Platform.P()
	vectors := make([]avail.Vector, p)
	for i := 0; i < p; i++ {
		proc, err := trace.NewSynthProcess(gen.Split(), trace.SynthOptions{Style: style})
		if err != nil {
			return nil, fmt.Errorf("volatile: trace style: %w", err)
		}
		vectors[i] = avail.Record(proc, traceLen)
	}
	return fitTraceModels(scn, vectors)
}
