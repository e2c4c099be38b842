package oracle

import (
	"fmt"
)

// Absorption analysis: treat a subset of states as absorbing and compute,
// for transient states, the probability of being absorbed in each target
// and the expected number of visits to each transient state (the
// fundamental matrix N = (I − Q)⁻¹).
//
// This provides an independent linear-algebra derivation of the paper's
// Section 5 quantities: P+ is the probability, starting from the UP state's
// successor distribution, of reaching UP before DOWN; E(W)'s per-step
// expectation follows from N's row sums. The expect package's tests check
// its closed forms against these.

// Absorption holds the result of an absorption analysis.
type Absorption struct {
	// Transient lists the transient state indices, in order; rows of B and
	// N correspond to this order.
	Transient []int
	// Absorbing lists the absorbing state indices; columns of B correspond
	// to this order.
	Absorbing []int
	// B[i][j] is the probability that, starting from Transient[i], the
	// chain is absorbed in Absorbing[j].
	B [][]float64
	// N[i][k] is the expected number of visits to Transient[k] before
	// absorption when starting from Transient[i] (including the start).
	N [][]float64
}

// Absorb computes absorption probabilities and the fundamental matrix for
// the chain with the given absorbing set. Every state outside the set is
// treated as transient; it errors when some transient state cannot reach
// the absorbing set.
func (c *Chain) Absorb(absorbing map[int]bool) (*Absorption, error) {
	n := c.N()
	if len(absorbing) == 0 {
		return nil, fmt.Errorf("oracle: empty absorbing set")
	}
	out := &Absorption{}
	pos := make(map[int]int)
	for i := 0; i < n; i++ {
		if absorbing[i] {
			out.Absorbing = append(out.Absorbing, i)
		} else {
			pos[i] = len(out.Transient)
			out.Transient = append(out.Transient, i)
		}
	}
	t := len(out.Transient)
	if t == 0 {
		return out, nil
	}
	// Solve (I − Q) N = I column by column, where Q is the transient block.
	buildIminusQ := func() [][]float64 {
		a := make([][]float64, t)
		for r, i := range out.Transient {
			a[r] = make([]float64, t)
			for k, j := range out.Transient {
				a[r][k] = -c.p[i][j]
			}
			a[r][r] += 1
		}
		return a
	}
	out.N = make([][]float64, t)
	for r := range out.N {
		out.N[r] = make([]float64, t)
	}
	for col := 0; col < t; col++ {
		b := make([]float64, t)
		b[col] = 1
		x, err := solveLinear(buildIminusQ(), b)
		if err != nil {
			return nil, fmt.Errorf("oracle: absorption: %w", err)
		}
		for r := 0; r < t; r++ {
			out.N[r][col] = x[r]
		}
	}
	// B = N · R, with R the transient→absorbing block.
	out.B = make([][]float64, t)
	for r := range out.B {
		out.B[r] = make([]float64, len(out.Absorbing))
		for j, aState := range out.Absorbing {
			var sum float64
			for k, tState := range out.Transient {
				sum += out.N[r][k] * c.p[tState][aState]
			}
			out.B[r][j] = sum
		}
	}
	// Sanity: each B row must be a distribution (all transients reach the
	// absorbing set).
	for r, row := range out.B {
		var sum float64
		for _, v := range row {
			sum += v
		}
		if diff := sum - 1; diff > 1e-6 || diff < -1e-6 {
			return nil, fmt.Errorf("oracle: transient state %d reaches absorption with probability %v",
				out.Transient[r], sum)
		}
	}
	return out, nil
}

// AbsorptionProbability returns the probability that the chain, started in
// `from`, reaches state `target` before any other state of `targets`.
// `from` must not itself be in `targets`.
func (c *Chain) AbsorptionProbability(from, target int, targets map[int]bool) (float64, error) {
	if targets[from] {
		return 0, fmt.Errorf("oracle: start state %d is absorbing", from)
	}
	if !targets[target] {
		return 0, fmt.Errorf("oracle: target %d not in absorbing set", target)
	}
	abs, err := c.Absorb(targets)
	if err != nil {
		return 0, err
	}
	ri, ci := -1, -1
	for r, s := range abs.Transient {
		if s == from {
			ri = r
		}
	}
	for cc, s := range abs.Absorbing {
		if s == target {
			ci = cc
		}
	}
	if ri < 0 || ci < 0 {
		return 0, fmt.Errorf("oracle: state lookup failed")
	}
	return abs.B[ri][ci], nil
}

// ExpectedStepsToAbsorption returns, for the given transient start state,
// the expected number of steps before absorption (the row sum of N).
func (a *Absorption) ExpectedStepsToAbsorption(from int) (float64, error) {
	for r, s := range a.Transient {
		if s == from {
			var sum float64
			for _, v := range a.N[r] {
				sum += v
			}
			return sum, nil
		}
	}
	return 0, fmt.Errorf("oracle: state %d is not transient", from)
}
