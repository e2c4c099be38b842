package offline

import "fmt"

// MaxTasksWithin computes, by exhaustive search, the maximum number of tasks
// completable within the instance's horizon (the optimization version that
// Proposition 1's inapproximability argument is about: on Theorem 1
// reduction instances, completed tasks correspond to satisfied clauses, so
// approximating the task count approximates MAXIMUM 3-SATISFIABILITY).
//
// Like ExactSearch it is exponential and guarded by a state limit.
func MaxTasksWithin(in *Instance, maxStates int) (int, error) {
	_, best, err := search(in, maxStates, "MaxTasksWithin")
	return best, err
}

// MaxSatisfiableClauses brute-forces MAXIMUM SATISFIABILITY for small
// formulas: the largest number of clauses any assignment satisfies.
func MaxSatisfiableClauses(f *CNF) (int, error) {
	if err := f.Validate(); err != nil {
		return 0, err
	}
	if f.NumVars > 20 {
		return 0, fmt.Errorf("offline: MaxSatisfiableClauses supports at most 20 variables")
	}
	assignment := make([]bool, f.NumVars+1)
	best := 0
	for mask := 0; mask < 1<<f.NumVars; mask++ {
		for v := 1; v <= f.NumVars; v++ {
			assignment[v] = mask&(1<<(v-1)) != 0
		}
		count := 0
		for _, c := range f.Clauses {
			for _, lit := range c {
				v := lit
				if v < 0 {
					v = -v
				}
				if (lit > 0) == assignment[v] {
					count++
					break
				}
			}
		}
		if count > best {
			best = count
			if best == len(f.Clauses) {
				break
			}
		}
	}
	return best, nil
}
