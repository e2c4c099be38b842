package avail

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// SemiMarkov is a discretized semi-Markov availability process: the state
// sequence follows an embedded Markov chain over {Up, Reclaimed, Down}, but
// the time spent in each visit (the sojourn) is drawn from an arbitrary
// per-state duration distribution rather than being geometric.
//
// This is the model class the paper's conclusion points to ("non-memoryless
// semi-Markov processes", citing Ren et al.), and the documented empirical
// finding that desktop-grid availability intervals are not exponential. We
// use it to stress the Markov-based heuristics on availability they were not
// derived for.
type SemiMarkov struct {
	// Jump[i][j] is the probability that a completed sojourn in state i is
	// followed by state j. Jump[i][i] must be 0 (self-loops are expressed by
	// the sojourn duration instead).
	jump [3][3]float64
	// Sojourn[i] samples the number of slots spent in state i per visit
	// (at least 1).
	sojourn [3]SojournSampler
}

// SojournSampler draws a sojourn duration in slots (>= 1).
type SojournSampler func(r *rng.PCG) int

// NewSemiMarkov validates and builds a semi-Markov model. Each row of jump
// must sum to 1 with a zero diagonal; every state needs a sampler.
func NewSemiMarkov(jump [3][3]float64, sojourn [3]SojournSampler) (*SemiMarkov, error) {
	for i := 0; i < 3; i++ {
		if jump[i][i] != 0 {
			return nil, fmt.Errorf("avail: semi-Markov jump matrix has self-loop at state %d", i)
		}
		var sum float64
		for j := 0; j < 3; j++ {
			if jump[i][j] < 0 || jump[i][j] > 1 {
				return nil, fmt.Errorf("avail: jump[%d][%d]=%v out of [0,1]", i, j, jump[i][j])
			}
			sum += jump[i][j]
		}
		if diff := sum - 1; diff > 1e-9 || diff < -1e-9 {
			return nil, fmt.Errorf("avail: jump row %d sums to %v", i, sum)
		}
		if sojourn[i] == nil {
			return nil, fmt.Errorf("avail: missing sojourn sampler for state %d", i)
		}
	}
	return &SemiMarkov{jump: jump, sojourn: sojourn}, nil
}

// WeibullSojourn returns a sampler drawing Weibull(shape, scale) durations,
// rounded up to whole slots. Shape < 1 gives the heavy-tailed behaviour
// reported for production desktop grids.
func WeibullSojourn(shape, scale float64) SojournSampler {
	return func(r *rng.PCG) int {
		return ceilAtLeast1(r.Weibull(shape, scale))
	}
}

// ParetoSojourn returns a sampler drawing Pareto(xm, alpha) durations.
func ParetoSojourn(xm, alpha float64) SojournSampler {
	return func(r *rng.PCG) int {
		return ceilAtLeast1(r.Pareto(xm, alpha))
	}
}

// LogNormalSojourn returns a sampler drawing LogNormal(mu, sigma) durations.
func LogNormalSojourn(mu, sigma float64) SojournSampler {
	return func(r *rng.PCG) int {
		return ceilAtLeast1(r.LogNormal(mu, sigma))
	}
}

// GeometricSojourn returns a sampler with P(T = k) = stay^(k-1) * (1-stay):
// with this choice the semi-Markov process is an ordinary Markov chain,
// which tests exploit as a consistency check. The draw is a single
// closed-form inversion, so stay arbitrarily close to 1 costs one uniform
// (no rejection loop); stay = 0 always returns 1.
func GeometricSojourn(stay float64) SojournSampler {
	if stay < 0 || stay >= 1 {
		panic("avail: GeometricSojourn needs stay in [0,1)")
	}
	if stay == 0 {
		// Degenerate chain: every sojourn is exactly one slot, drawn
		// without consuming the RNG (the inversion would spend a uniform).
		return func(*rng.PCG) int { return 1 }
	}
	invLogStay := 1 / math.Log(stay)
	return func(r *rng.PCG) int {
		return geometricSojournSlotsInv(r, invLogStay)
	}
}

// ceilAtLeast1 rounds a sampled duration up to whole slots with a floor of
// one slot. NaN and sub-slot draws (tiny Weibull scales) map to 1;
// overflowing draws clamp to maxSojourn so the float-to-int conversion
// stays defined.
func ceilAtLeast1(x float64) int {
	if !(x > 1) { // NaN or x <= 1
		return 1
	}
	if x >= maxSojourn {
		return maxSojourn
	}
	n := int(x)
	if float64(n) < x {
		n++
	}
	return n
}

// NewProcess starts a trajectory in the given state with a fresh sojourn.
func (m *SemiMarkov) NewProcess(r *rng.PCG, initial State) *SemiMarkovProcess {
	if !initial.Valid() {
		panic("avail: invalid initial state")
	}
	p := &SemiMarkovProcess{model: m, state: initial, r: r}
	p.remaining = m.sojourn[initial](r)
	return p
}

// SemiMarkovProcess is one sampled trajectory of a SemiMarkov model.
type SemiMarkovProcess struct {
	model     *SemiMarkov
	state     State
	remaining int // slots left in the current sojourn, including none consumed
	// trajStarted/trajAt track the run-level position; maintained only when
	// the process is driven through NextTransition (see Trajectory).
	trajStarted bool
	trajAt      int
	r           *rng.PCG
}

// Next implements Process.
func (p *SemiMarkovProcess) Next() State {
	if p.remaining <= 0 {
		// Jump to the next state and draw its sojourn.
		x := p.r.Float64()
		row := p.model.jump[p.state]
		next := State(2)
		for j := 0; j < 3; j++ {
			x -= row[j]
			if x < 0 {
				next = State(j)
				break
			}
		}
		p.state = next
		p.remaining = p.model.sojourn[next](p.r)
	}
	p.remaining--
	return p.state
}
