package offline

import (
	"fmt"
	"math/bits"

	"repro/internal/avail"
)

// ExactSearch computes the optimal (minimum) makespan of an instance under
// bounded ncom by breadth-first search over execution states, or -1 when the
// instance cannot complete m tasks within its horizon.
//
// The problem is NP-hard (Theorem 1), so this solver is exponential; it
// guards against blow-ups with frontier and branching limits and returns an
// error when the instance is too large. It exists to certify small optima:
// validating the 3SAT reduction, the MCT counterexample of Section 4, and
// the optimality of MCTNoContention on contention-free instances.
func ExactSearch(in *Instance) (int, error) {
	return ExactSearchLimit(in, 2_000_000)
}

// ExactSearchLimit is ExactSearch with an explicit bound on the number of
// distinct states explored per slot.
func ExactSearchLimit(in *Instance, maxStates int) (int, error) {
	full, _, err := search(in, maxStates, "ExactSearch")
	return full, err
}

// search runs the breadth-first search over execution states behind
// ExactSearch and MaxTasksWithin, naming the caller in its errors. It
// returns the number of slots after which some schedule first completes all
// m tasks (-1 if none does within the horizon) and the most tasks any
// schedule completes; the search stops at the first full completion.
func search(in *Instance, maxStates int, caller string) (full, best int, err error) {
	if err := in.Validate(); err != nil {
		return 0, 0, err
	}
	if in.P() > 16 {
		return 0, 0, fmt.Errorf("offline: %s supports at most 16 processors, got %d", caller, in.P())
	}

	start := newMachine(in)
	frontier := map[string]*machine{stateKey(start): start}

	for t := 0; t < in.N(); t++ {
		next := make(map[string]*machine)
		for _, mc := range frontier {
			// Processors that could use a channel this slot.
			var needy []int
			// Processors that might perform a zero-cost start this slot.
			var startable []int
			for q := 0; q < in.P(); q++ {
				if in.Vectors[q][t] != avail.Up {
					continue
				}
				p := &mc.procs[q]
				switch {
				case p.progRecv < in.Tprog:
					needy = append(needy, q)
				case p.dataRecv > 0:
					needy = append(needy, q)
				case in.Tdata > 0 && !p.hasData && mc.tasksStarted < in.M:
					needy = append(needy, q)
				}
				// Superset of zero-start eligibility: the program may
				// complete and the computation may end within this very
				// slot; invalid combos are rejected by step().
				if in.Tdata == 0 && !p.hasData && mc.tasksStarted < in.M &&
					p.progRecv >= in.Tprog-1 && p.computeRem <= 1 {
					startable = append(startable, q)
				}
			}
			commSets := subsetsUpTo(needy, in.Ncom)
			startSets := subsetsUpTo(startable, len(startable))
			for _, comm := range commSets {
				for _, starts := range startSets {
					child := mc.clone()
					if err := child.step(t, comm, starts); err != nil {
						continue // invalid combo (over-eager superset)
					}
					if child.tasksDone > best {
						best = child.tasksDone
						if best >= in.M {
							return t + 1, best, nil
						}
					}
					k := stateKey(child)
					if _, ok := next[k]; !ok {
						next[k] = child
						if len(next) > maxStates {
							return 0, 0, fmt.Errorf("offline: %s exceeded %d states at slot %d", caller, maxStates, t)
						}
					}
				}
			}
		}
		if len(next) == 0 {
			break
		}
		frontier = next
	}
	return -1, best, nil
}

// stateKey canonically encodes a machine state.
func stateKey(mc *machine) string {
	buf := make([]byte, 0, 4*len(mc.procs)+2)
	for q := range mc.procs {
		p := &mc.procs[q]
		h := byte(0)
		if p.hasData {
			h = 1
		}
		buf = append(buf, byte(p.progRecv), byte(p.dataRecv), h, byte(p.computeRem))
	}
	buf = append(buf, byte(mc.tasksStarted), byte(mc.tasksDone))
	return string(buf)
}

// subsetsUpTo enumerates every subset of items with at most maxSize elements
// (including the empty set). len(items) must be <= 16.
func subsetsUpTo(items []int, maxSize int) [][]int {
	n := len(items)
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for mask := 0; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) > maxSize {
			continue
		}
		var sub []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sub = append(sub, items[i])
			}
		}
		out = append(out, sub)
	}
	return out
}
