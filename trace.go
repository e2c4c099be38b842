package volatile

// Trace-driven availability: traced scenarios (Scenario.Traced), which
// replay explicit availability vectors instead of sampling the Markov
// model, and TraceSource, the sweep availability source that replays
// synthetic or recorded trace sets. The paper's conclusion proposes
// challenging the Markov assumption with real availability traces;
// internal/trace supplies FTA-style synthetic generators and the fitting
// code, and this file wires them into the public API.
//
// Fitting a Markov model to a vector and parsing vector specs are pure
// functions of the input, so each Scenario interns its traced scenarios —
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

// traceCacheLimit bounds the per-scenario cache. Sweeps run every heuristic
// of an instance back to back on one trace set, so even a small cache gets
// a hit for all but the first run; the limit only caps memory when many
// distinct trace sets stream through one scenario.
const traceCacheLimit = 32

// traceCache interns traced scenarios per key. Safe for concurrent use.
type traceCache struct {
	mu      sync.Mutex
	entries map[string]*Scenario
}

// traced returns the interned scenario for key, building it on a miss.
// The build runs under the lock: duplicate fits would cost more than the
// brief contention, and sweep workers overwhelmingly hit distinct scenarios
// anyway.
func (c *traceCache) traced(key string, build func() (*Scenario, error)) (*Scenario, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ts, ok := c.entries[key]; ok {
		return ts, nil
	}
	ts, err := build()
	if err != nil {
		return nil, err
	}
	if c.entries == nil {
		c.entries = make(map[string]*Scenario, traceCacheLimit)
	}
	if len(c.entries) >= traceCacheLimit {
		for k := range c.entries { // evict one arbitrary entry
			delete(c.entries, k)
			break
		}
	}
	c.entries[key] = ts
	return ts, nil
}

// Traced returns the scenario with explicit availability vectors (letters
// u/r/d, one string per processor): the same processors, speeds and run
// parameters, but every trial replays the vectors verbatim (then holds
// their last state), and the platform carries Markov models fitted to each
// vector, which the informed heuristics consult, mirroring a master that
// estimated behaviour from history. Vector count must match the processor
// count. The result is interned per scenario, so repeated calls on the same
// vectors (comparing heuristics, sweeping seeds) parse and fit them only
// once. Trace replay consumes no RNG, so deterministic heuristics produce
// bit-identical results in both time bases; see EXPERIMENTS.md.
func (s *Scenario) Traced(vectors []string) (*Scenario, error) {
	if len(vectors) != s.inner.Platform.P() {
		return nil, fmt.Errorf("volatile: %d vectors for %d processors",
			len(vectors), s.inner.Platform.P())
	}
	key := "vec\x00" + strings.Join(vectors, "\x00")
	return s.traces.traced(key, func() (*Scenario, error) {
		parsed := make([]avail.Vector, len(vectors))
		for i, spec := range vectors {
			v, err := avail.ParseVector(spec)
			if err != nil {
				return nil, fmt.Errorf("volatile: vector %d: %w", i, err)
			}
			parsed[i] = v
		}
		return s.replaying(parsed)
	})
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

// instanceTrace returns the traced scenario of one instance. Recorded sets
// repeat across scenarios (and across trials when Trials > len(Files)), so
// they are interned through the per-scenario cache: one fit per (scenario,
// file), keyed on the file's index in Trace.Files — stable for the sweep's
// lifetime, which is exactly the cache's lifetime (it lives on the
// Scenario). Each (scenario, trial) has a unique synthetic set, shared by
// every heuristic of the instance directly, so interning it would only
// retain memory — it is built uncached and dies with the instance.
func (p *sweepPlan) instanceTrace(scn *Scenario, cfg *SweepConfig, cellIdx, scenIdx, trialIdx int) (*Scenario, error) {
	if p.sets != nil {
		idx := trialIdx % len(p.sets)
		return scn.traces.traced("file\x00"+strconv.Itoa(idx), func() (*Scenario, error) {
			return scn.replaying(p.sets[idx].Vectors)
		})
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
