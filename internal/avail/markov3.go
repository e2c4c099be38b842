package avail

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/rng"
)

// probTolerance is the slack allowed when checking that probabilities are in
// [0,1]. Scenario generators and trace fits build rows from float64
// arithmetic, so exact bounds are too strict.
const probTolerance = 1e-9

// Markov3 is the paper's 3-state Markov availability model (Section 5):
// a recurrent aperiodic chain over {Up, Reclaimed, Down} defined by the nine
// probabilities P(i,j). It carries its stationary distribution, which several
// heuristics (Random3, Random4, UD) consume.
type Markov3 struct {
	pi [3]float64
	// p is the matrix as given, which P, the analytics and NextTransition
	// read; c is p with every entry clamped into [0,1], which the stationary
	// solve, Matrix and the per-slot Next read. The two differ only where an
	// entry lies within probTolerance outside [0,1]. invLogStay[s] is
	// 1/ln(P(s,s)) (0 for absorbing or zero-stay states), precomputed so the
	// closed-form geometric sojourn draw of NextTransition costs a single
	// log per transition; it sits next to p, which the same draw reads.
	p          [3][3]float64
	invLogStay [3]float64
	c          [3][3]float64
	// memo interns derived per-model quantities (internal/expect.Analytics).
	// The model is immutable after construction, so the derived values are
	// too; keeping the slot opaque here preserves the expect -> avail
	// dependency direction.
	memo atomic.Pointer[any]
}

// Memo returns the interned derived-analytics value, or nil when none has
// been stored yet. The content is owned by internal/expect.
func (m *Markov3) Memo() any {
	if p := m.memo.Load(); p != nil {
		return *p
	}
	return nil
}

// SetMemo interns a derived-analytics value. Concurrent stores of equal
// values are harmless: the model is immutable, so every computed value is
// identical and the last store wins.
func (m *Markov3) SetMemo(v any) { m.memo.Store(&v) }

// NewMarkov3 validates the 3x3 transition matrix (indexed by State: Up=0,
// Reclaimed=1, Down=2) and precomputes the stationary distribution. Every
// entry must lie in [0,1] and every row must sum to 1, each within a small
// tolerance; the matrices of trace fits and of callers outside the program
// arrive here unchecked.
func NewMarkov3(p [3][3]float64) (*Markov3, error) {
	m := &Markov3{p: p}
	for i, row := range p {
		var sum float64
		for j, v := range row {
			if v < -probTolerance || v > 1+probTolerance || math.IsNaN(v) {
				return nil, fmt.Errorf("avail: markov: P[%d][%d]=%v out of [0,1]", i, j, v)
			}
			m.c[i][j] = math.Min(1, math.Max(0, v))
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return nil, fmt.Errorf("avail: markov: row %d sums to %v, want 1", i, sum)
		}
	}
	if err := m.solveStationary(); err != nil {
		return nil, err
	}
	for s := 0; s < 3; s++ {
		if stay := p[s][s]; stay > 0 && stay < 1 {
			m.invLogStay[s] = 1 / math.Log(stay)
		}
	}
	return m, nil
}

// MustMarkov3 is NewMarkov3 that panics on error; for tests and examples.
func MustMarkov3(p [3][3]float64) *Markov3 {
	m, err := NewMarkov3(p)
	if err != nil {
		panic(err)
	}
	return m
}

// RandomMarkov3 draws a model using the experimental rule of Section 7:
// each diagonal entry P(x,x) is uniform in [0.90, 0.99] and the two
// off-diagonal entries of the row split the remainder evenly,
// P(x,y) = (1 - P(x,x)) / 2.
func RandomMarkov3(r *rng.PCG) *Markov3 {
	var p [3][3]float64
	for i := 0; i < 3; i++ {
		stay := r.UniformRange(0.90, 0.99)
		rest := (1 - stay) / 2
		for j := 0; j < 3; j++ {
			if i == j {
				p[i][j] = stay
			} else {
				p[i][j] = rest
			}
		}
	}
	return MustMarkov3(p)
}

// P returns the one-step transition probability from state i to state j.
func (m *Markov3) P(i, j State) float64 { return m.p[i][j] }

// Stationary returns the limit distribution (piU, piR, piD).
func (m *Markov3) Stationary() (piU, piR, piD float64) {
	return m.pi[0], m.pi[1], m.pi[2]
}

// Matrix returns the 3x3 transition matrix with every entry clamped into
// [0,1].
func (m *Markov3) Matrix() [3][3]float64 { return m.c }

// solveStationary sets m.pi to the distribution pi with pi P = pi and
// sum(pi) = 1. It solves (P^T - I) pi = 0, with the last equation replaced
// by the normalisation, by Gaussian elimination with partial pivoting on the
// clamped matrix, then clamps roundoff negatives to zero and renormalises.
// The order of every floating-point operation is part of the results: each
// pi feeds a heuristic score.
func (m *Markov3) solveStationary() error {
	var a [3][3]float64
	var b [3]float64
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a[i][j] = m.c[j][i]
		}
		a[i][i] -= 1
	}
	a[2] = [3]float64{1, 1, 1}
	b[2] = 1
	for col := 0; col < 3; col++ {
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < 3; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-13 {
			return fmt.Errorf("avail: markov: stationary: singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < 3; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	pi := &m.pi
	for r := 2; r >= 0; r-- {
		v := b[r]
		for k := r + 1; k < 3; k++ {
			v -= a[r][k] * pi[k]
		}
		pi[r] = v / a[r][r]
	}
	var sum float64
	for i, v := range pi {
		if v < 0 {
			if v < -1e-8 {
				return fmt.Errorf("avail: markov: stationary solution has negative mass %v at state %d", v, i)
			}
			pi[i] = 0
		}
		sum += pi[i]
	}
	if sum <= 0 {
		return errors.New("avail: markov: stationary solution has no mass")
	}
	for i := range pi {
		pi[i] /= sum
	}
	return nil
}

// NewProcess returns a trajectory of this model starting in the given state,
// driven by r. The first Next call returns initial itself (the state of
// slot 0); subsequent calls step the chain. This matches VectorProcess,
// whose first Next returns the first vector entry.
func (m *Markov3) NewProcess(r *rng.PCG, initial State) *Markov3Process {
	if !initial.Valid() {
		panic("avail: invalid initial state")
	}
	return &Markov3Process{model: m, state: initial, r: r}
}

// SampleStationary draws a state from the model's limit distribution.
func (m *Markov3) SampleStationary(r *rng.PCG) State {
	x := r.Float64()
	if x < m.pi[0] {
		return Up
	}
	if x < m.pi[0]+m.pi[1] {
		return Reclaimed
	}
	return Down
}

// Markov3Process is a single sampled trajectory of a Markov3 model.
type Markov3Process struct {
	model   *Markov3
	state   State
	started bool
	// at is the absolute slot of the next transition; maintained only when
	// the process is driven through NextTransition (see Trajectory).
	at int
	r  *rng.PCG
}

// Reset re-points the process at model, driven by r from the given initial
// state, reusing the allocation. It leaves the process exactly as
// model.NewProcess(r, initial) would construct it; pooled trial scratch
// (workload.TrialPool) resets recycled processes instead of allocating.
func (p *Markov3Process) Reset(model *Markov3, r *rng.PCG, initial State) {
	if !initial.Valid() {
		panic("avail: invalid initial state")
	}
	*p = Markov3Process{model: model, state: initial, r: r}
}

// Next implements Process: the first call yields the initial state (slot 0),
// each later call advances the chain by one transition.
func (p *Markov3Process) Next() State {
	if !p.started {
		p.started = true
		return p.state
	}
	p.state = p.model.step(p.state, p.r.Float64())
	return p.state
}

// step samples the successor of state s from the clamped matrix using u, a
// uniform draw in [0,1): the first state whose cumulative mass exceeds u.
func (m *Markov3) step(s State, u float64) State {
	row := &m.c[s]
	x := u - row[0]
	if x < 0 {
		return Up
	}
	if x -= row[1]; x < 0 {
		return Reclaimed
	}
	if x -= row[2]; x < 0 {
		return Down
	}
	// Roundoff fell off the end: return the last state with positive mass.
	for j := 2; j >= 0; j-- {
		if row[j] > 0 {
			return State(j)
		}
	}
	return Down
}

// State returns the current state without advancing.
func (p *Markov3Process) State() State { return p.state }
