// Package oracle holds reference implementations that tests compare the
// program against: general finite Markov chains (validation, stationary
// distributions by elimination and by power iteration, sampling, absorption
// and hitting times), Monte Carlo estimators of the Section 5 quantities,
// the exact survival form P_UD(k), and the corrected Tdata of Section 6.3.1
// that the greedy scorers inline.
//
// Only _test.go files may import this package, and TestOracleIsTestOnly
// enforces that: none of this code is linked into a sweep. The paper's
// 3-state chain that sweeps run is internal/avail's Markov3, which must
// agree with Chain bit for bit.
package oracle

import (
	"errors"
	"fmt"
	"math"
)

// probTolerance is the slack allowed when checking that probabilities are in
// [0,1] and that rows sum to one. Scenario generators build rows from
// float64 arithmetic, so exact equality is too strict.
const probTolerance = 1e-9

// Chain is a finite discrete-time Markov chain. P[i][j] is the probability
// of moving from state i to state j in one step.
type Chain struct {
	p [][]float64
}

// NewChain validates the transition matrix and returns a chain.
// The matrix must be square, non-empty, with entries in [0,1] and rows
// summing to 1 (within a small tolerance).
func NewChain(p [][]float64) (*Chain, error) {
	n := len(p)
	if n == 0 {
		return nil, errors.New("oracle: empty transition matrix")
	}
	cp := make([][]float64, n)
	for i, row := range p {
		if len(row) != n {
			return nil, fmt.Errorf("oracle: row %d has %d entries, want %d", i, len(row), n)
		}
		var sum float64
		cp[i] = make([]float64, n)
		for j, v := range row {
			if v < -probTolerance || v > 1+probTolerance || math.IsNaN(v) {
				return nil, fmt.Errorf("oracle: P[%d][%d]=%v out of [0,1]", i, j, v)
			}
			cp[i][j] = math.Min(1, math.Max(0, v))
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			return nil, fmt.Errorf("oracle: row %d sums to %v, want 1", i, sum)
		}
	}
	return &Chain{p: cp}, nil
}

// MustChain is NewChain that panics on error; for literals in tests.
func MustChain(p [][]float64) *Chain {
	c, err := NewChain(p)
	if err != nil {
		panic(err)
	}
	return c
}

// N reports the number of states.
func (c *Chain) N() int { return len(c.p) }

// P returns the one-step transition probability from state i to state j.
func (c *Chain) P(i, j int) float64 { return c.p[i][j] }

// Stationary computes the stationary distribution pi with pi P = pi and
// sum(pi)=1 by solving the linear system (P^T - I) pi = 0 augmented with the
// normalization constraint, using Gaussian elimination with partial pivoting.
// It returns an error when the system is singular beyond the normalization
// redundancy (e.g. multiple closed communicating classes give one valid
// solution chosen by the solver; truly degenerate inputs error out).
func (c *Chain) Stationary() ([]float64, error) {
	n := c.N()
	// Build A = P^T - I, then replace the last row with all-ones (sum = 1).
	a := make([][]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			a[i][j] = c.p[j][i]
		}
		a[i][i] -= 1
	}
	for j := 0; j < n; j++ {
		a[n-1][j] = 1
	}
	b[n-1] = 1

	pi, err := solveLinear(a, b)
	if err != nil {
		return nil, fmt.Errorf("oracle: stationary: %w", err)
	}
	// Clamp tiny negatives from roundoff and renormalize.
	var sum float64
	for i, v := range pi {
		if v < 0 {
			if v < -1e-8 {
				return nil, fmt.Errorf("oracle: stationary solution has negative mass %v at state %d", v, i)
			}
			pi[i] = 0
		}
		sum += pi[i]
	}
	if sum <= 0 {
		return nil, errors.New("oracle: stationary solution has no mass")
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi, nil
}

// StationaryPower computes the stationary distribution by power iteration.
// It is used in tests to cross-validate Stationary. maxIter bounds the work;
// tol is the L1 convergence threshold.
func (c *Chain) StationaryPower(maxIter int, tol float64) ([]float64, error) {
	n := c.N()
	cur := make([]float64, n)
	next := make([]float64, n)
	for i := range cur {
		cur[i] = 1 / float64(n)
	}
	for iter := 0; iter < maxIter; iter++ {
		for j := 0; j < n; j++ {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			if cur[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				next[j] += cur[i] * c.p[i][j]
			}
		}
		var diff float64
		for j := 0; j < n; j++ {
			diff += math.Abs(next[j] - cur[j])
		}
		cur, next = next, cur
		if diff < tol {
			return append([]float64(nil), cur...), nil
		}
	}
	return nil, fmt.Errorf("oracle: power iteration did not converge in %d iterations", maxIter)
}

// Step samples the successor of state i using u, a uniform draw in [0,1).
// Factoring the uniform out keeps the chain usable with any RNG.
func (c *Chain) Step(i int, u float64) int {
	row := c.p[i]
	x := u
	for j, v := range row {
		x -= v
		if x < 0 {
			return j
		}
	}
	// Roundoff fell off the end: return the last state with positive mass.
	for j := len(row) - 1; j >= 0; j-- {
		if row[j] > 0 {
			return j
		}
	}
	return len(row) - 1
}

// ExpectedHittingTime returns, for each start state, the expected number of
// steps to first reach any state in targets. Entries for target states are 0.
// It errors when some state cannot reach the target set (infinite
// expectation).
func (c *Chain) ExpectedHittingTime(targets map[int]bool) ([]float64, error) {
	n := c.N()
	// Unknowns: h_i for non-target states; h_i = 1 + sum_j P[i][j] h_j.
	idx := make([]int, 0, n)
	pos := make(map[int]int, n)
	for i := 0; i < n; i++ {
		if !targets[i] {
			pos[i] = len(idx)
			idx = append(idx, i)
		}
	}
	m := len(idx)
	if m == 0 {
		return make([]float64, n), nil
	}
	a := make([][]float64, m)
	b := make([]float64, m)
	for r, i := range idx {
		a[r] = make([]float64, m)
		a[r][r] = 1
		b[r] = 1
		for j := 0; j < n; j++ {
			if targets[j] {
				continue
			}
			a[r][pos[j]] -= c.p[i][j]
		}
	}
	h, err := solveLinear(a, b)
	if err != nil {
		return nil, fmt.Errorf("oracle: hitting time: %w", err)
	}
	out := make([]float64, n)
	for r, i := range idx {
		if h[r] < 0 || math.IsInf(h[r], 0) || math.IsNaN(h[r]) {
			return nil, fmt.Errorf("oracle: hitting time from state %d is not finite/positive (%v)", i, h[r])
		}
		out[i] = h[r]
	}
	return out, nil
}

// solveLinear solves a x = b by Gaussian elimination with partial pivoting.
// a and b are modified in place.
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		best := math.Abs(a[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-13 {
			return nil, fmt.Errorf("singular system at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		b[col], b[pivot] = b[pivot], b[col]
		// Eliminate.
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k < n; k++ {
				a[r][k] -= f * a[col][k]
			}
			b[r] -= f * b[col]
		}
	}
	// Back-substitution.
	x := make([]float64, n)
	for r := n - 1; r >= 0; r-- {
		v := b[r]
		for k := r + 1; k < n; k++ {
			v -= a[r][k] * x[k]
		}
		x[r] = v / a[r][r]
	}
	return x, nil
}
