// Package stats implements the evaluation metrics of Section 7: the
// degradation-from-best (dfb) of each heuristic on each problem instance,
// win counting, and the aggregation used by Table 2, Table 3 and Figure 2,
// plus small descriptive-statistics helpers.
package stats

import (
	"math"
	"sort"
)

// DFB returns the degradation from best in percent: the relative distance of
// a makespan from the best makespan observed on the same instance.
// A value of 0 means the heuristic was (tied-)best.
func DFB(makespan, best int) float64 {
	if best <= 0 {
		return 0
	}
	return 100 * float64(makespan-best) / float64(best)
}

// InstanceResult is the makespan of every heuristic on one problem instance
// (one scenario × one trial).
type InstanceResult struct {
	// Makespans maps heuristic name to achieved makespan (slots).
	Makespans map[string]int
	// Censored marks heuristics whose run hit the slot cap.
	Censored map[string]bool
}

// Best returns the smallest uncensored makespan of the instance; ok is false
// when every heuristic was censored.
func (ir *InstanceResult) Best() (best int, ok bool) {
	for name, ms := range ir.Makespans {
		if ir.Censored[name] {
			continue
		}
		if !ok || ms < best {
			best, ok = ms, true
		}
	}
	return best, ok
}

// accum is the running per-heuristic aggregate: a left-to-right sum of dfb
// samples (in Add order, so results are bit-identical to summing a stored
// sample slice), their count, and the win count.
type accum struct {
	sum   float64
	count int
	wins  int
}

// Aggregator accumulates per-heuristic dfb values and win counts over many
// instances, as the paper's Table 2 does. It keeps running sums only, so its
// memory is O(heuristics) regardless of how many instances it has seen.
//
// Because floating-point addition is order-sensitive, two Aggregators are
// bit-identical only when they received the same instances in the same
// order; parallel sweeps therefore add instances in a deterministic order.
type Aggregator struct {
	acc map[string]*accum
	n   int
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{acc: make(map[string]*accum)}
}

// Add folds one instance into the aggregate. Censored heuristics receive the
// dfb of the slot cap (a large penalty) and never win. Instances where every
// heuristic is censored are dropped.
func (a *Aggregator) Add(ir *InstanceResult) {
	best, ok := ir.Best()
	if !ok {
		return
	}
	a.n++
	for name, ms := range ir.Makespans {
		ac := a.acc[name]
		if ac == nil {
			ac = &accum{}
			a.acc[name] = ac
		}
		ac.sum += DFB(ms, best)
		ac.count++
		if !ir.Censored[name] && ms == best {
			ac.wins++
		}
	}
}

// Instances reports the number of aggregated instances.
func (a *Aggregator) Instances() int { return a.n }

// AccumState is the serialized running aggregate of one heuristic: the
// left-to-right dfb sum carried as raw IEEE-754 bits (so a restored
// aggregator resumes the exact float, not a decimal approximation), the
// sample count and the win count.
type AccumState struct {
	// Name is the heuristic (or batch discipline) the row belongs to.
	Name string
	// SumBits is math.Float64bits of the running dfb sum.
	SumBits uint64
	// Count is the number of dfb samples folded into the sum.
	Count int
	// Wins counts the instances where the heuristic was (tied-)best.
	Wins int
}

// AggregatorState is a serializable snapshot of an Aggregator's running
// state, ordered deterministically (by name) so its encoding is stable.
type AggregatorState struct {
	// Instances is the number of aggregated instances.
	Instances int
	// Accums holds one entry per heuristic, sorted by Name.
	Accums []AccumState
}

// State snapshots the aggregator's running sums. The snapshot is a deep
// copy: later Adds do not disturb it. Restoring it with FromState and
// replaying the remaining instances in order yields an aggregator
// bit-identical to one that saw the full sequence (the sum is carried as
// raw float bits, so not even the last ulp is lost).
func (a *Aggregator) State() AggregatorState {
	st := AggregatorState{Instances: a.n, Accums: make([]AccumState, 0, len(a.acc))}
	for name, ac := range a.acc {
		st.Accums = append(st.Accums, AccumState{
			Name:    name,
			SumBits: math.Float64bits(ac.sum),
			Count:   ac.count,
			Wins:    ac.wins,
		})
	}
	sort.Slice(st.Accums, func(i, j int) bool { return st.Accums[i].Name < st.Accums[j].Name })
	return st
}

// FromState reconstructs an Aggregator from a State snapshot.
func FromState(st AggregatorState) *Aggregator {
	a := NewAggregator()
	a.n = st.Instances
	for _, ac := range st.Accums {
		a.acc[ac.Name] = &accum{sum: math.Float64frombits(ac.SumBits), count: ac.Count, wins: ac.Wins}
	}
	return a
}

// Row is one line of a Table 2-style report.
type Row struct {
	// Name is the heuristic.
	Name string
	// AvgDFB is the mean degradation from best, in percent.
	AvgDFB float64
	// Wins counts the instances where the heuristic was (tied-)best.
	Wins int
}

// Rows returns the aggregate sorted by increasing average dfb
// (best heuristic first), matching the layout of Table 2.
func (a *Aggregator) Rows() []Row {
	out := make([]Row, 0, len(a.acc))
	for name, ac := range a.acc {
		out = append(out, Row{Name: name, AvgDFB: ac.sum / float64(ac.count), Wins: ac.wins})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].AvgDFB != out[j].AvgDFB {
			return out[i].AvgDFB < out[j].AvgDFB
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// AvgDFB returns the mean dfb of one heuristic; ok is false when the
// heuristic has no samples.
func (a *Aggregator) AvgDFB(name string) (float64, bool) {
	ac, ok := a.acc[name]
	if !ok || ac.count == 0 {
		return 0, false
	}
	return ac.sum / float64(ac.count), true
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for fewer than 2 samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func CI95(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}
