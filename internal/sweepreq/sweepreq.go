// Package sweepreq is the shared CLI/service request layer for the sweep
// experiments: one Request struct describing any sweep-family submission
// with the same knobs (and the same validation messages) volabench exposes
// as flags, plus the construction of the matching volatile config and its
// canonical content digest. cmd/volabench parses flags into a Request;
// cmd/volaserved unmarshals the same shape from JSON — both then share
// validation, config construction and digesting, so a sweep submitted
// either way produces the same result under the same content address.
package sweepreq

import (
	"fmt"
	"strings"

	volatile "repro"
	"repro/internal/faultinject"
)

// experiments lists every -exp value the CLI dispatches on, in the order
// the usage text presents them. Those with a preset (IsSweep) run through
// the sharded sweep pipeline — the ones that support the durability flags
// and that the sweep service accepts. The other experiments (ablation,
// emctgain*) run several sweeps or none and exist only as CLI
// conveniences.
var experiments = []string{
	"table2", "figure2", "table3x5", "table3x10",
	"ablation", "emctgain", "emctgain-norepl", "tracesweep", "dfrs",
	"largep", "moldable",
}

// maxInstances bounds a sweep request's instance count (cells × scenarios
// × trials): 2^24 instances, about 56 times the paper's full Table 2
// (120 cells × 247 scenarios × 10 trials). A larger request would hold a
// job slot for longer than any real reproduction needs.
const maxInstances = 1 << 24

// SweepExperiments returns the experiments that run through the sharded
// sweep pipeline (checkpointable, streamable, servable), in usage order.
func SweepExperiments() []string {
	var out []string
	for _, e := range experiments {
		if IsSweep(e) {
			out = append(out, e)
		}
	}
	return out
}

// IsSweep reports whether exp runs through the sharded sweep pipeline.
func IsSweep(exp string) bool {
	_, ok := presets[exp]
	return ok
}

// Request describes one sweep-family submission. Field names mirror the
// volabench flags; JSON tags are the service's wire format. The zero value
// of an optional field means "use the experiment default" (WithDefaults
// makes those defaults explicit — the same ones the volabench flags carry).
type Request struct {
	// Exp names the experiment (table2, figure2, table3x5, table3x10,
	// tracesweep, dfrs, largep; the CLI additionally runs ablation and
	// emctgain*, which Build rejects).
	Exp string `json:"exp"`
	// Mode is the engine time base: "slot" (default) or "event".
	Mode string `json:"mode,omitempty"`
	// Scenarios and Trials scale the sweep (defaults 6 and 4, the
	// volabench flag defaults; the paper uses 247 × 10).
	Scenarios int `json:"scenarios,omitempty"`
	Trials    int `json:"trials,omitempty"`
	// Procs overrides the platform size (0 = experiment default; largep
	// defaults to 1000).
	Procs int `json:"p,omitempty"`
	// Seed makes the sweep reproducible (default 0).
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds sweep parallelism (0 = all cores). Excluded from the
	// config digest: results are bit-identical for any worker count.
	Workers int `json:"workers,omitempty"`
	// TraceStyle, TraceLen and TraceFiles configure tracesweep (ignored by
	// the other experiments; TraceFiles is rejected outside tracesweep
	// because replacing the availability source silently would be a trap).
	TraceStyle string   `json:"trace_style,omitempty"`
	TraceLen   int      `json:"trace_len,omitempty"`
	TraceFiles []string `json:"trace_files,omitempty"`
	// Alloc is the allocation-policy spec for the moldable experiment
	// ("fixed", "maximum-iters", "split-into[:parts]", "reshape[:step]").
	// Rejected outside moldable because silently ignoring a requested
	// policy would be a trap; defaults to "maximum-iters" for moldable.
	Alloc string `json:"alloc,omitempty"`
	// ContinueOnError sets the failure policy: drop a failed instance
	// instead of aborting the sweep (excluded from the digest, like the
	// other execution knobs).
	ContinueOnError bool `json:"continue_on_error,omitempty"`
}

// WithDefaults returns the request with unset optional knobs replaced by
// the volabench flag defaults, so a minimal service submission and a
// flag-default CLI run canonicalize to the same digest.
func (r Request) WithDefaults() Request {
	if r.Mode == "" {
		r.Mode = "slot"
	}
	if r.Scenarios == 0 {
		r.Scenarios = 6
	}
	if r.Trials == 0 {
		r.Trials = 4
	}
	if r.TraceStyle == "" {
		r.TraceStyle = "weibull"
	}
	if r.TraceLen == 0 {
		r.TraceLen = 1000
	}
	if r.Exp == "largep" && r.Procs == 0 {
		r.Procs = 1000
	}
	if r.Exp == "moldable" && r.Alloc == "" {
		r.Alloc = "maximum-iters"
	}
	return r
}

// Validate rejects unusable requests up front with flag-flavoured messages
// (the service's JSON fields are named after the flags, so the messages
// read correctly on both surfaces). It does not apply defaults: a zero
// Scenarios is an error here, exactly as `-scenarios 0` is on the CLI.
func (r Request) Validate() error {
	if r.Scenarios <= 0 {
		return fmt.Errorf("-scenarios must be positive (got %d)", r.Scenarios)
	}
	if r.Trials <= 0 {
		return fmt.Errorf("-trials must be positive (got %d)", r.Trials)
	}
	if r.Workers < 0 {
		return fmt.Errorf("-workers must be >= 0, where 0 means all cores (got %d)", r.Workers)
	}
	if r.Procs < 0 {
		return fmt.Errorf("-p must be >= 0, where 0 means the experiment default (got %d)", r.Procs)
	}
	if _, err := volatile.ParseMode(r.Mode); err != nil {
		return fmt.Errorf("unknown mode %q (valid: %s)", r.Mode, strings.Join(volatile.ModeNames(), ", "))
	}
	known := false
	for _, e := range experiments {
		if r.Exp == e {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (valid: %s)", r.Exp, strings.Join(experiments, ", "))
	}
	if len(r.TraceFiles) > 0 && r.Exp != "tracesweep" {
		return fmt.Errorf("-trace-file applies only to -exp tracesweep (got -exp %s)", r.Exp)
	}
	if r.Alloc != "" {
		if r.Exp != "moldable" {
			return fmt.Errorf("-alloc applies only to -exp moldable (got -exp %s)", r.Exp)
		}
		if _, err := volatile.ParseAllocPolicy(r.Alloc); err != nil {
			return fmt.Errorf("-alloc: %v (valid: %s)", err, strings.Join(volatile.AllocPolicySpecs(), ", "))
		}
	}
	if r.Exp == "tracesweep" {
		if _, err := ParseTraceStyle(r.TraceStyle); r.TraceStyle != "" && err != nil {
			return err
		}
		if r.TraceLen != 0 && r.TraceLen < 2 && len(r.TraceFiles) == 0 {
			return fmt.Errorf("-trace-len must be >= 2 to fit models (got %d)", r.TraceLen)
		}
	}
	return nil
}

// ParseTraceStyle resolves a sojourn-family name.
func ParseTraceStyle(name string) (volatile.TraceStyle, error) {
	switch name {
	case "weibull":
		return volatile.TraceWeibull, nil
	case "pareto":
		return volatile.TracePareto, nil
	case "lognormal":
		return volatile.TraceLogNormal, nil
	}
	return 0, fmt.Errorf("unknown trace style %q (weibull|pareto|lognormal)", name)
}

// RunOpts carries the per-execution knobs a caller wires into a built
// sweep: progress reporting, checkpoint placement, graceful stop and fault
// injection. None of them affect the result (or the digest).
type RunOpts struct {
	Progress   func(done, total int)
	Checkpoint *volatile.CheckpointConfig
	Stop       <-chan struct{}
	Faults     *faultinject.Plan
}

// Built is a validated, constructed sweep: its canonical content digest
// (the result-cache / checkpoint key), the resolved contender list, the
// total instance count, and a Run closure executing it through
// volatile.RunSweep.
type Built struct {
	// Exp echoes the experiment name.
	Exp string
	// Digest is the canonical config digest (ConfigDigest of the built
	// config) — equal digests mean bit-identical results.
	Digest string
	// Heuristics is the resolved contender list (what figure2 plots, what
	// the tables rank; dfrs lists the batch disciplines after the
	// heuristics).
	Heuristics []string
	// Instances is cells × scenarios × trials, the total the Progress
	// callback counts toward.
	Instances int
	// Run executes the sweep. It may be called at most once per checkpoint
	// lifecycle but is otherwise stateless: every call re-runs (or, with
	// Checkpoint.Resume, continues) the identical sweep.
	Run func(RunOpts) (*volatile.SweepResult, error)
}

// presets maps every sweep experiment to the config it runs, built from a
// defaulted and validated request. Build adds the knobs all experiments
// share (platform size, mode, workers, failure policy).
var presets = map[string]func(r Request) volatile.SweepConfig{
	"table2":  func(r Request) volatile.SweepConfig { return volatile.Table2Config(r.Scenarios, r.Trials, r.Seed) },
	"figure2": func(r Request) volatile.SweepConfig { return volatile.Figure2Config(r.Scenarios, r.Trials, r.Seed) },
	"table3x5": func(r Request) volatile.SweepConfig {
		return volatile.Table3Config(5, r.Scenarios, r.Trials, r.Seed)
	},
	"table3x10": func(r Request) volatile.SweepConfig {
		return volatile.Table3Config(10, r.Scenarios, r.Trials, r.Seed)
	},
	"largep": func(r Request) volatile.SweepConfig {
		return volatile.LargePConfig(r.Procs, r.Scenarios, r.Trials, r.Seed)
	},
	"tracesweep": func(r Request) volatile.SweepConfig {
		cfg := volatile.Table2Config(r.Scenarios, r.Trials, r.Seed)
		style, _ := ParseTraceStyle(r.TraceStyle) // Validate has checked it
		cfg.Trace = &volatile.TraceSource{Style: style, Len: r.TraceLen, Files: r.TraceFiles}
		return cfg
	},
	"dfrs": func(r Request) volatile.SweepConfig {
		cfg := volatile.Table2Config(r.Scenarios, r.Trials, r.Seed)
		cfg.Heuristics = append(volatile.Heuristics(), volatile.BatchDisciplines()...)
		return cfg
	},
	"moldable": func(r Request) volatile.SweepConfig {
		cfg := volatile.Table2Config(r.Scenarios, r.Trials, r.Seed)
		cfg.Alloc = r.Alloc
		return cfg
	},
}

// Build validates the request, applies defaults, constructs the matching
// sweep config and returns its digest and runner. Non-sweep experiments
// (ablation, emctgain*) are rejected: they are CLI compositions, not single
// checkpointable sweeps.
func Build(r Request) (*Built, error) {
	r = r.WithDefaults()
	if err := r.Validate(); err != nil {
		return nil, err
	}
	preset, ok := presets[r.Exp]
	if !ok {
		return nil, fmt.Errorf("experiment %q does not run through the sweep pipeline (sweep experiments: %s)",
			r.Exp, strings.Join(SweepExperiments(), ", "))
	}
	mode, err := volatile.ParseMode(r.Mode)
	if err != nil {
		return nil, err
	}
	cfg := preset(r)
	if cells := len(cfg.Cells); r.Scenarios > maxInstances/cells/r.Trials {
		return nil, fmt.Errorf("%d cells × %d scenarios × %d trials exceeds the limit of %d instances per sweep",
			cells, r.Scenarios, r.Trials, maxInstances)
	}
	if r.Procs != 0 {
		cfg.Options.Processors = r.Procs
	}
	cfg.Mode, cfg.Workers = mode, r.Workers
	cfg.ContinueOnError = r.ContinueOnError
	digest, err := cfg.ConfigDigest()
	if err != nil {
		return nil, err
	}
	heur := cfg.Heuristics
	if len(heur) == 0 {
		heur = volatile.Heuristics()
	}
	return &Built{
		Exp:        r.Exp,
		Digest:     digest,
		Heuristics: heur,
		Instances:  len(cfg.Cells) * r.Scenarios * r.Trials,
		Run: func(o RunOpts) (*volatile.SweepResult, error) {
			c := cfg
			c.Progress, c.Checkpoint, c.Stop, c.Faults = o.Progress, o.Checkpoint, o.Stop, o.Faults
			return volatile.RunSweep(c)
		},
	}, nil
}
