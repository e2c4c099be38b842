package avail

import (
	"math"

	"repro/internal/rng"
)

// Forever is the transition slot NextTransition returns when the current
// state holds for the rest of time (a recorded vector past its end, or a
// Markov state with stay probability 1).
const Forever = math.MaxInt

// maxSojourn bounds a single sampled sojourn so float-to-int conversions
// of huge or infinite draws stay defined. 1<<60 slots is far beyond any
// run horizon, so the clamp is observationally equivalent to Forever.
const maxSojourn = 1 << 60

// Trajectory is the sojourn-level view of an availability Process: instead
// of emitting one state per slot, it emits runs of constant state.
//
// The first NextTransition call returns the state of slot 0 together with
// atSlot 0. Each subsequent call returns the next distinct state and the
// absolute slot at which it begins; successive atSlot values are strictly
// increasing. When the current state holds forever, the call returns
// (state, Forever), and every later call repeats that answer.
//
// A process must be driven through exactly one of Next or NextTransition
// for its whole lifetime: the two views share the underlying RNG stream
// and position, so interleaving them produces neither trajectory.
type Trajectory interface {
	Process
	NextTransition() (State, int)
}

// geometricSojournSlotsInv draws L >= 1 with P(L = k) = stay^(k-1) *
// (1-stay) by inversion: L = 1 + floor(ln(1-u)/ln(stay)). One uniform draw
// per sojourn, no rejection loop, so stay arbitrarily close to 1 stays O(1).
// The caller passes 1/ln(stay) precomputed (negative for stay in (0,1)), so
// it pays one log per draw instead of two; stay = 0 (every sojourn one slot)
// and stay >= 1 (absorbing, Forever) are the caller's to handle.
func geometricSojournSlotsInv(r *rng.PCG, invLogStay float64) int {
	u := r.Float64() // [0,1), so 1-u is in (0,1] and the log is finite
	f := math.Log(1-u) * invLogStay
	if math.IsNaN(f) || f >= maxSojourn-1 {
		return maxSojourn
	}
	return 1 + int(f)
}

// clampAddSlot returns at+length saturating at Forever.
func clampAddSlot(at, length int) int {
	if at >= Forever-length {
		return Forever
	}
	return at + length
}

// NextTransition implements Trajectory by run-length scanning the vector.
// Past the end it reports the final state holding Forever, matching Next's
// dead-stays-dead semantics.
func (p *VectorProcess) NextTransition() (State, int) {
	if p.pos >= len(p.v) {
		return p.v[len(p.v)-1], Forever
	}
	at := p.pos
	s := p.v[at]
	for p.pos < len(p.v) && p.v[p.pos] == s {
		p.pos++
	}
	return s, at
}

// NextTransition implements Trajectory by sampling geometric sojourns in
// closed form and jumping with the conditional distribution
// P(s,j)/(1-P(s,s)) over j != s. The run-start slots are distributed
// exactly as the per-slot chain of Next, but the RNG is consumed per
// transition (one sojourn draw plus one jump draw) rather than per slot.
func (p *Markov3Process) NextTransition() (State, int) {
	if !p.started {
		p.started = true
		p.at = p.sojournEnd(0)
		return p.state, 0
	}
	at := p.at
	if at == Forever {
		return p.state, Forever
	}
	p.state = p.jumpConditional()
	p.at = p.sojournEnd(at)
	return p.state, at
}

// sojournEnd samples how long the current state holds starting at slot
// from and returns the absolute slot of the next transition.
func (p *Markov3Process) sojournEnd(from int) int {
	stay := p.model.p[p.state][p.state]
	if stay >= 1 {
		return Forever
	}
	if stay <= 0 {
		return clampAddSlot(from, 1)
	}
	return clampAddSlot(from, geometricSojournSlotsInv(p.r, p.model.invLogStay[p.state]))
}

// jumpConditional draws the next state given that it differs from the
// current one.
func (p *Markov3Process) jumpConditional() State {
	row := &p.model.p[p.state]
	x := p.r.Float64() * (1 - row[p.state])
	last := p.state
	for j := State(0); j < numStates; j++ {
		if j == p.state {
			continue
		}
		x -= row[j]
		if x < 0 {
			return j
		}
		last = j
	}
	// Rounding dribble: the off-diagonal row mass is 1-stay up to float
	// error, so fall back to the last non-self state.
	return last
}

// NextTransition implements Trajectory. The sojourn drawn at construction
// becomes the first run's length, so a trajectory-driven process consumes
// its RNG in the same order as a slot-driven one: sojourns and jumps
// alternate starting from the constructor's initial draw.
func (p *SemiMarkovProcess) NextTransition() (State, int) {
	if !p.trajStarted {
		p.trajStarted = true
		length := p.remaining
		if length < 1 {
			length = 1
		}
		p.trajAt = clampAddSlot(0, length)
		return p.state, 0
	}
	at := p.trajAt
	if at == Forever {
		return p.state, Forever
	}
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
	length := p.model.sojourn[next](p.r)
	if length < 1 {
		length = 1
	}
	p.trajAt = clampAddSlot(at, length)
	return p.state, at
}
