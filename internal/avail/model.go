// Package avail models temporal processor availability.
//
// The paper's platform model (Section 3.2) describes each processor as being,
// at every discrete time slot, in one of three states: UP (available for
// computation and communication), RECLAIMED (temporarily preempted by its
// owner: work is suspended but preserved), or DOWN (crashed: program, data
// and partial results are lost). This package provides:
//
//   - the State type and availability vectors;
//   - the paper's 3-state Markov model (Section 5), including the random
//     instantiation rule of Section 7, with its own stationary solve and
//     per-slot step on fixed 3x3 arrays (tests check both bit for bit
//     against internal/oracle's general n-state chain);
//   - trace-replay processes, used both for the off-line study (known
//     availability vectors) and for record/replay experiments;
//   - a semi-Markov process with general sojourn-time distributions, the
//     paper's "future work" model, used to challenge the Markov assumption.
package avail

import "fmt"

// State is the availability state of a processor during one time slot.
type State uint8

const (
	// Up means the processor is available for computation and communication.
	Up State = iota
	// Reclaimed means the owner has temporarily reclaimed the processor:
	// ongoing work is suspended and will resume intact when it returns Up.
	Reclaimed
	// Down means the processor has crashed: the application program, all
	// received data and partial results are lost.
	Down
	numStates = 3
)

// NumStates is the size of the availability state space.
const NumStates = int(numStates)

// String returns the single-letter encoding used by the paper: u, r, d.
func (s State) String() string {
	switch s {
	case Up:
		return "u"
	case Reclaimed:
		return "r"
	case Down:
		return "d"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Valid reports whether s is one of the three defined states.
func (s State) Valid() bool { return s < numStates }

// ParseState parses the paper's single-letter encoding.
func ParseState(c byte) (State, error) {
	switch c {
	case 'u', 'U':
		return Up, nil
	case 'r', 'R':
		return Reclaimed, nil
	case 'd', 'D':
		return Down, nil
	default:
		return 0, fmt.Errorf("avail: invalid state letter %q", string(c))
	}
}

// Vector is a processor's availability over consecutive time slots,
// the paper's S_q.
type Vector []State

// ParseVector parses a string such as "uurdu" into a Vector.
func ParseVector(s string) (Vector, error) {
	v := make(Vector, len(s))
	for i := 0; i < len(s); i++ {
		st, err := ParseState(s[i])
		if err != nil {
			return nil, fmt.Errorf("avail: position %d: %w", i, err)
		}
		v[i] = st
	}
	return v, nil
}

// String renders the vector in the paper's letter encoding.
func (v Vector) String() string {
	b := make([]byte, len(v))
	for i, s := range v {
		b[i] = v.letter(s)
	}
	return string(b)
}

func (Vector) letter(s State) byte {
	switch s {
	case Up:
		return 'u'
	case Reclaimed:
		return 'r'
	default:
		return 'd'
	}
}

// Process produces a processor's availability state slot by slot.
// Implementations are single-trajectory and not safe for concurrent use.
type Process interface {
	// Next returns the availability state for the next time slot.
	Next() State
}

// VectorProcess replays a fixed availability vector. Past the end of the
// vector it keeps returning the final state (a dead processor stays dead, an
// up processor stays up), which matches how the off-line instances of
// Section 4 are defined on a finite horizon.
type VectorProcess struct {
	v   Vector
	pos int
}

// NewVectorProcess returns a process replaying v. It panics if v is empty.
func NewVectorProcess(v Vector) *VectorProcess {
	if len(v) == 0 {
		panic("avail: empty vector")
	}
	return &VectorProcess{v: v}
}

// Reset re-points the process at v and rewinds it to slot 0, reusing the
// allocation. It panics if v is empty, matching NewVectorProcess.
func (p *VectorProcess) Reset(v Vector) {
	if len(v) == 0 {
		panic("avail: empty vector")
	}
	p.v, p.pos = v, 0
}

// Next implements Process.
func (p *VectorProcess) Next() State {
	if p.pos < len(p.v) {
		s := p.v[p.pos]
		p.pos++
		return s
	}
	return p.v[len(p.v)-1]
}

// Record runs process p for n slots and returns the resulting vector.
func Record(p Process, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = p.Next()
	}
	return v
}
