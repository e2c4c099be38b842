// Package trace records, replays, serializes and synthesizes availability
// traces.
//
// The paper's conclusion proposes challenging the Markov assumption with
// real availability traces (e.g. the Failure Trace Archive). Real FTA data
// is not redistributable here, so this package provides synthetic
// FTA-style generators — semi-Markov processes with Weibull, Pareto or
// log-normal sojourns, the distribution families the desktop-grid
// measurement literature reports — plus a plain-text serialization format so
// genuine traces can be dropped in later. The trace-driven experiments feed
// these through the exact same scheduler code paths as the Markov model.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"math"

	"repro/internal/avail"
	"repro/internal/rng"
)

// Set is a bundle of per-processor availability vectors of equal length.
type Set struct {
	// Vectors[q] is processor q's recorded availability.
	Vectors []avail.Vector
}

// Validate checks non-emptiness and equal lengths.
func (s *Set) Validate() error {
	if len(s.Vectors) == 0 {
		return fmt.Errorf("trace: empty set")
	}
	n := len(s.Vectors[0])
	if n == 0 {
		return fmt.Errorf("trace: zero-length vectors")
	}
	for q, v := range s.Vectors {
		if len(v) != n {
			return fmt.Errorf("trace: vector %d has length %d, want %d", q, len(v), n)
		}
	}
	return nil
}

// Len returns the common vector length.
func (s *Set) Len() int {
	if len(s.Vectors) == 0 {
		return 0
	}
	return len(s.Vectors[0])
}

// Record samples n slots from each given process into a Set.
func Record(procs []avail.Process, n int) *Set {
	out := &Set{Vectors: make([]avail.Vector, len(procs))}
	for i, p := range procs {
		out.Vectors[i] = avail.Record(p, n)
	}
	return out
}

// Write serializes the set as a line-oriented text format: a header line
// "volatrace <p> <n>" followed by one u/r/d string per processor.
func (s *Set) Write(w io.Writer) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "volatrace %d %d\n", len(s.Vectors), s.Len()); err != nil {
		return err
	}
	for _, v := range s.Vectors {
		if _, err := fmt.Fprintln(w, v.String()); err != nil {
			return err
		}
	}
	return nil
}

// Read parses the serialization produced by Write.
func Read(r io.Reader) (*Set, error) {
	br := bufio.NewReader(r)
	var p, n int
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(header), "volatrace %d %d", &p, &n); err != nil {
		return nil, fmt.Errorf("trace: bad header %q: %w", strings.TrimSpace(header), err)
	}
	if p <= 0 || n <= 0 {
		return nil, fmt.Errorf("trace: invalid dimensions %dx%d", p, n)
	}
	// Cap the pre-allocation: p comes from untrusted input, and a header
	// claiming billions of vectors must not reserve gigabytes before a
	// single line is read. Memory may only grow with actual input — append
	// extends the slice as genuine vectors arrive.
	preAlloc := p
	if preAlloc > 1024 {
		preAlloc = 1024
	}
	out := &Set{Vectors: make([]avail.Vector, 0, preAlloc)}
	for i := 0; i < p; i++ {
		line, err := br.ReadString('\n')
		if err != nil && !(err == io.EOF && len(line) > 0) {
			return nil, fmt.Errorf("trace: reading vector %d: %w", i, err)
		}
		v, err := avail.ParseVector(strings.TrimSpace(line))
		if err != nil {
			return nil, fmt.Errorf("trace: vector %d: %w", i, err)
		}
		if len(v) != n {
			return nil, fmt.Errorf("trace: vector %d has length %d, want %d", i, len(v), n)
		}
		out.Vectors = append(out.Vectors, v)
	}
	return out, out.Validate()
}

// FTAStyle names a synthetic sojourn-distribution family.
type FTAStyle int

// Supported synthetic families. The shape parameters follow the qualitative
// findings of the desktop-grid availability literature: heavy-tailed UP
// durations (Weibull shape < 1 / Pareto), shorter reclaim interruptions,
// and rarer long outages.
const (
	// Weibull: Weibull sojourns with shape 0.6 (heavy tail).
	Weibull FTAStyle = iota
	// Pareto: Pareto sojourns with tail index 2.5.
	Pareto
	// LogNormal: log-normal sojourns with sigma 1.2.
	LogNormal
)

// String names the style.
func (s FTAStyle) String() string {
	switch s {
	case Weibull:
		return "weibull"
	case Pareto:
		return "pareto"
	case LogNormal:
		return "lognormal"
	default:
		return "unknown"
	}
}

// SynthOptions parameterizes synthetic trace generation.
type SynthOptions struct {
	// Style selects the sojourn family.
	Style FTAStyle
	// MeanUp is the target mean UP sojourn in slots (default 40).
	MeanUp float64
	// MeanReclaimed is the target mean RECLAIMED sojourn (default 10).
	MeanReclaimed float64
	// MeanDown is the target mean DOWN sojourn (default 20).
	MeanDown float64
}

func (o SynthOptions) withDefaults() SynthOptions {
	if o.MeanUp == 0 {
		o.MeanUp = 40
	}
	if o.MeanReclaimed == 0 {
		o.MeanReclaimed = 10
	}
	if o.MeanDown == 0 {
		o.MeanDown = 20
	}
	return o
}

// NewSynthProcess builds one FTA-style semi-Markov availability process:
// after each UP sojourn the processor is reclaimed (70%) or crashes (30%);
// RECLAIMED and DOWN sojourns both return to UP.
func NewSynthProcess(r *rng.PCG, opt SynthOptions) (avail.Process, error) {
	opt = opt.withDefaults()
	sampler := func(mean float64) avail.SojournSampler {
		switch opt.Style {
		case Weibull:
			// Mean of Weibull(shape k, scale s) = s·Γ(1+1/k); for k=0.6,
			// Γ(1+1/0.6) ≈ 1.5046, so s = mean/1.5046.
			return avail.WeibullSojourn(0.6, mean/1.5046)
		case Pareto:
			// Mean of Pareto(xm, α) = α·xm/(α−1); α = 2.5 keeps the tail
			// heavy but the variance finite, so finite-window occupancy is
			// not dominated by a single extreme sojourn. xm = 0.6·mean.
			return avail.ParetoSojourn(0.6*mean, 2.5)
		case LogNormal:
			// Mean of LogNormal(mu, sigma) = exp(mu + sigma²/2); sigma=1.2.
			const sigma = 1.2
			mu := math.Log(mean) - sigma*sigma/2
			return avail.LogNormalSojourn(mu, sigma)
		default:
			return nil
		}
	}
	upS, reS, doS := sampler(opt.MeanUp), sampler(opt.MeanReclaimed), sampler(opt.MeanDown)
	if upS == nil {
		return nil, fmt.Errorf("trace: unknown style %v", opt.Style)
	}
	jump := [3][3]float64{
		{0, 0.7, 0.3}, // UP -> mostly reclaimed, sometimes crash
		{1, 0, 0},     // RECLAIMED -> UP
		{1, 0, 0},     // DOWN -> UP (reboot)
	}
	sm, err := avail.NewSemiMarkov(jump, [3]avail.SojournSampler{upS, reS, doS})
	if err != nil {
		return nil, err
	}
	return sm.NewProcess(r, avail.Up), nil
}

// FitMarkov3 estimates a 3-state Markov model from a recorded vector by
// counting transitions (with add-one smoothing so all transitions keep
// positive probability). This is the master's "belief" model handed to
// informed heuristics in trace-driven experiments.
func FitMarkov3(v avail.Vector) (*avail.Markov3, error) {
	if len(v) < 2 {
		return nil, fmt.Errorf("trace: vector too short to fit")
	}
	var counts [3][3]float64
	for i := 0; i+1 < len(v); i++ {
		counts[v[i]][v[i+1]]++
	}
	var p [3][3]float64
	for i := 0; i < 3; i++ {
		total := 3.0 // add-one smoothing mass
		for j := 0; j < 3; j++ {
			total += counts[i][j]
		}
		for j := 0; j < 3; j++ {
			p[i][j] = (counts[i][j] + 1) / total
		}
	}
	return avail.NewMarkov3(p)
}

// EmpiricalStationary returns the observed state frequencies of a vector.
func EmpiricalStationary(v avail.Vector) (piU, piR, piD float64) {
	var counts [3]float64
	for _, s := range v {
		counts[s]++
	}
	n := float64(len(v))
	if n == 0 {
		return 0, 0, 0
	}
	return counts[0] / n, counts[1] / n, counts[2] / n
}
