package avail_test

import (
	"fmt"
	"testing"

	"repro/internal/avail"
	"repro/internal/rng"
)

// tapeSource builds one kind of availability process afresh from a seed,
// so a test can record it on a tape and compare against an untouched twin.
type tapeSource struct {
	name string
	make func(seed uint64) avail.Process
	// horizon bounds the random horizons a test records the source to.
	horizon int
}

// tapeSources covers every source a tape records: random paper-rule and
// skewed Markov3 chains, heavy-tailed and geometric semi-Markov processes,
// and replayed vectors (recorded run by run, not slot by slot). The sticky
// chain and the long vectors have runs (log deltas) spanning several
// varint bytes; the churning chain changes state every slot, so its log
// spans many chunks.
func tapeSources() []tapeSource {
	jump := [3][3]float64{{0, 0.7, 0.3}, {0.8, 0, 0.2}, {0.9, 0.1, 0}}
	weibull, err := avail.NewSemiMarkov(jump, [3]avail.SojournSampler{
		avail.WeibullSojourn(0.6, 20), avail.ParetoSojourn(2, 1.5), avail.LogNormalSojourn(2, 1)})
	if err != nil {
		panic(err)
	}
	geometric, err := avail.NewSemiMarkov(jump, [3]avail.SojournSampler{
		avail.GeometricSojourn(0.9), avail.GeometricSojourn(0), avail.GeometricSojourn(0.5)})
	if err != nil {
		panic(err)
	}
	skewed := avail.MustMarkov3([3][3]float64{{0.5, 0.3, 0.2}, {0.1, 0.89, 0.01}, {0.6, 0.2, 0.2}})
	churn := avail.MustMarkov3([3][3]float64{{0, 0.5, 0.5}, {0.5, 0, 0.5}, {0.5, 0.5, 0}})
	sticky := avail.MustMarkov3([3][3]float64{{0.99995, 0.00003, 0.00002}, {0.3, 0.4, 0.3}, {0.00004, 0.00001, 0.99995}})
	vector := func(seed uint64, runs, maxRun int) avail.Process {
		r := rng.New(seed)
		var v avail.Vector
		for k := 0; k < runs; k++ {
			s := avail.State(r.Intn(3))
			for l := 1 + r.Intn(maxRun); l > 0; l-- {
				v = append(v, s)
			}
		}
		return avail.NewVectorProcess(v)
	}
	return []tapeSource{
		{"markov3-paper", func(seed uint64) avail.Process {
			r := rng.New(seed)
			m := avail.RandomMarkov3(r)
			return m.NewProcess(r, m.SampleStationary(r))
		}, 800},
		{"markov3-skewed", func(seed uint64) avail.Process {
			return skewed.NewProcess(rng.New(seed), avail.State(seed%3))
		}, 800},
		{"semimarkov-heavy", func(seed uint64) avail.Process {
			return weibull.NewProcess(rng.New(seed), avail.Up)
		}, 800},
		{"semimarkov-geometric", func(seed uint64) avail.Process {
			return geometric.NewProcess(rng.New(seed), avail.Down)
		}, 800},
		{"markov3-sticky", func(seed uint64) avail.Process {
			return sticky.NewProcess(rng.New(seed), avail.Up)
		}, 120000},
		{"markov3-churn", func(seed uint64) avail.Process {
			return churn.NewProcess(rng.New(seed), avail.Up)
		}, 20000},
		{"vector", func(seed uint64) avail.Process {
			return vector(seed, 1+int(seed%40), 12)
		}, 800},
		{"vector-long", func(seed uint64) avail.Process {
			return vector(seed, 1+int(seed%6), 40000)
		}, 120000},
	}
}

// countingSource counts the slots drawn from a process.
type countingSource struct {
	avail.Process
	n int
}

func (c *countingSource) Next() avail.State {
	c.n++
	return c.Process.Next()
}

// countingTrajectory counts the runs drawn from a trajectory.
type countingTrajectory struct {
	avail.Trajectory
	n int
}

func (c *countingTrajectory) NextTransition() (avail.State, int) {
	c.n++
	return c.Trajectory.NextTransition()
}

// entry is one logged transition as a Reader returns it.
type entry struct {
	slot, worker int
	state        avail.State
}

// readLog reads r up to (excluding) slot stop, checking (slot, worker)
// order, and appends what it read to log. It reports whether r reached the
// end of the log (Forever).
func readLog(t *testing.T, r *avail.Reader, stop int, log *[]entry) bool {
	t.Helper()
	for r.Slot() < stop {
		e := entry{r.Slot(), r.Worker(), r.State()}
		if n := len(*log); n > 0 {
			if p := (*log)[n-1]; e.slot < p.slot || e.slot == p.slot && e.worker <= p.worker {
				t.Fatalf("log entry %+v after %+v breaks (slot, worker) order", e, p)
			}
		}
		*log = append(*log, e)
		if err := r.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	return r.Slot() == avail.Forever
}

// project expands worker i's logged transitions into its first n per-slot
// states, starting from its slot-0 state.
func project(t *testing.T, tape *avail.Tape, log []entry, i, n int) avail.Vector {
	t.Helper()
	v := make(avail.Vector, 0, n)
	s := tape.Initial()[i]
	for _, e := range log {
		if e.worker != i || e.slot >= n {
			continue
		}
		if e.state == s {
			t.Fatalf("worker %d logged a transition into its current state %v at slot %d", i, s, e.slot)
		}
		for len(v) < e.slot {
			v = append(v, s)
		}
		s = e.state
	}
	for len(v) < n {
		v = append(v, s)
	}
	return v
}

// TestTapePerSlotReplay is the per-slot tape's property: two readers of
// one tape, extending it in an interleaved order, one stopping at a random
// horizon and one reading to the end, read the same log, and each worker's
// projection of it is exactly the per-slot Next sequence of a fresh twin of
// its source up to the horizon. One tape serves every seed of a source,
// reset to a changing number of processors, so its storage is recycled.
func TestTapePerSlotReplay(t *testing.T) {
	for _, src := range tapeSources() {
		var tape avail.Tape
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", src.name, seed), func(t *testing.T) {
				r := rng.New(seed * 977)
				procs := 1 + r.Intn(6)
				limit := 1 + r.Intn(src.horizon)
				srcs := make([]avail.Process, procs)
				for i := range srcs {
					srcs[i] = src.make(seed*8 + uint64(i))
				}
				tape.Reset(srcs, true, limit)
				log := readInterleaved(t, &tape, r, limit)
				for i := range srcs {
					want := avail.Record(src.make(seed*8+uint64(i)), limit)
					checkSlots(t, i, project(t, &tape, log, i, limit+20), want, limit)
				}
			})
		}
	}
}

// readInterleaved reads tape with two readers advanced in random chunks:
// one to a random horizon below limit, one to the end of the log. The
// shorter read must be a prefix of the longer, which it returns.
func readInterleaved(t *testing.T, tape *avail.Tape, r *rng.PCG, limit int) []entry {
	t.Helper()
	var short, long avail.Reader
	if err := short.Rewind(tape); err != nil {
		t.Fatal(err)
	}
	if err := long.Rewind(tape); err != nil {
		t.Fatal(err)
	}
	stop := r.Intn(limit)
	var shortLog, longLog []entry
	for done := false; !done; {
		if s := short.Slot(); s < stop {
			readLog(t, &short, min(stop, s+1+r.Intn(40)), &shortLog)
		}
		done = readLog(t, &long, long.Slot()+1+r.Intn(40), &longLog)
	}
	readLog(t, &short, stop, &shortLog)
	if len(shortLog) > len(longLog) || fmt.Sprint(shortLog) != fmt.Sprint(longLog[:len(shortLog)]) {
		t.Fatalf("readers disagree: %v is not a prefix of %v", shortLog, longLog)
	}
	if n := len(longLog); n > 0 && longLog[n-1].slot >= limit {
		t.Fatalf("transition logged at slot %d, at or past the horizon %d", longLog[n-1].slot, limit)
	}
	return longLog
}

// checkSlots compares a replayed sequence with the reference up to the
// horizon and requires the last state to hold past it.
func checkSlots(t *testing.T, proc int, got, want avail.Vector, limit int) {
	t.Helper()
	for s := 0; s < limit; s++ {
		if got[s] != want[s] {
			t.Fatalf("proc %d: slot %d replays %v, source drew %v", proc, s, got[s], want[s])
		}
	}
	for s := limit; s < len(got); s++ {
		if got[s] != want[limit-1] {
			t.Fatalf("proc %d: slot %d past the horizon %d replays %v, want the last state %v",
				proc, s, limit, got[s], want[limit-1])
		}
	}
}

// TestTapeTransitionReplay pins the transition tape: each worker's
// projection of the log is exactly a fresh twin's NextTransition runs that
// start before the horizon, and the log reads the same through two
// interleaved readers.
func TestTapeTransitionReplay(t *testing.T) {
	const procs = 4
	for _, src := range tapeSources() {
		var tape avail.Tape
		for seed := uint64(1); seed <= 8; seed++ {
			r := rng.New(seed * 31)
			limit := 1 + r.Intn(2*src.horizon)
			srcs := make([]avail.Process, procs)
			for i := range srcs {
				srcs[i] = src.make(seed*procs + uint64(i))
			}
			tape.Reset(srcs, false, limit)
			log := readInterleaved(t, &tape, r, limit)
			for i := range srcs {
				var want []entry
				twin := src.make(seed*procs + uint64(i)).(avail.Trajectory)
				for {
					st, at := twin.NextTransition()
					if at >= limit {
						break
					}
					want = append(want, entry{at, i, st})
				}
				got := []entry{{0, i, tape.Initial()[i]}}
				for _, e := range log {
					if e.worker == i {
						got = append(got, e)
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s seed %d proc %d: replayed runs %v, source %v", src.name, seed, i, got, want)
				}
			}
		}
	}
}

// TestTapeSecondReaderDrawsNothing pins the sharing itself: once one reader
// has read the log up to some slot, a second reader replays the identical
// log up to that slot without drawing a single sample from any source, on
// either kind of tape.
func TestTapeSecondReaderDrawsNothing(t *testing.T) {
	m := avail.MustMarkov3([3][3]float64{{0.9, 0.05, 0.05}, {0.3, 0.6, 0.1}, {0.3, 0.1, 0.6}})
	const procs, limit = 5, 400
	for _, perSlot := range []bool{true, false} {
		srcs := make([]avail.Process, procs)
		drawn := func() int {
			n := 0
			for _, p := range srcs {
				switch c := p.(type) {
				case *countingSource:
					n += c.n
				case *countingTrajectory:
					n += c.n
				}
			}
			return n
		}
		for i := range srcs {
			p := m.NewProcess(rng.New(uint64(i)), avail.Up)
			if perSlot {
				srcs[i] = &countingSource{Process: p}
			} else {
				srcs[i] = &countingTrajectory{Trajectory: p}
			}
		}
		var tape avail.Tape
		tape.Reset(srcs, perSlot, limit)
		var first, second avail.Reader
		var firstLog, secondLog []entry
		if err := first.Rewind(&tape); err != nil {
			t.Fatal(err)
		}
		readLog(t, &first, limit/2, &firstLog)
		before := drawn()
		if err := second.Rewind(&tape); err != nil {
			t.Fatal(err)
		}
		readLog(t, &second, limit/2, &secondLog)
		if after := drawn(); after != before {
			t.Fatalf("perSlot=%v: the second reader drew %d samples, want 0", perSlot, after-before)
		}
		if len(firstLog) == 0 || fmt.Sprint(firstLog) != fmt.Sprint(secondLog) {
			t.Fatalf("perSlot=%v: second reader read %d entries, first %d", perSlot, len(secondLog), len(firstLog))
		}
	}
}

// TestTapeHorizonCap checks that a per-slot tape never draws a slot at or
// past its horizon, that the log ends in Forever (repeated on every later
// Advance) once every source holds to the horizon, and that an absorbed
// process (a vector past its end) costs no per-slot stepping.
func TestTapeHorizonCap(t *testing.T) {
	m := avail.MustMarkov3([3][3]float64{{0.999, 0.0005, 0.0005}, {0.3, 0.4, 0.3}, {0.3, 0.3, 0.4}})
	const limit = 50
	src := &countingSource{Process: m.NewProcess(rng.New(3), avail.Up)}
	var tape avail.Tape
	tape.Reset([]avail.Process{src, avail.NewVectorProcess(avail.Vector{avail.Up, avail.Down})}, true, limit)
	if got := tape.Initial(); got[0] != avail.Up || got[1] != avail.Up {
		t.Fatalf("slot-0 states %v, want [u u]", got)
	}
	var r avail.Reader
	var log []entry
	if err := r.Rewind(&tape); err != nil {
		t.Fatal(err)
	}
	readLog(t, &r, avail.Forever, &log)
	if src.n != limit {
		t.Fatalf("source drew %d slots, want exactly the horizon %d", src.n, limit)
	}
	var vec []entry
	for _, e := range log {
		if e.worker == 1 {
			vec = append(vec, e)
		}
	}
	if want := []entry{{1, 1, avail.Down}}; fmt.Sprint(vec) != fmt.Sprint(want) {
		t.Fatalf("vector transitions %v, want %v", vec, want)
	}
	for k := 0; k < 3; k++ {
		if err := r.Advance(); err != nil || r.Slot() != avail.Forever {
			t.Fatalf("Advance past the end: slot %d, err %v; want Forever", r.Slot(), err)
		}
	}
}

// badTrajectory replays fixed (state, slot) runs, however malformed, then
// holds its last state Forever.
type badTrajectory struct {
	states []avail.State
	starts []int
}

func (b *badTrajectory) Next() avail.State { panic("badTrajectory is read run by run") }

func (b *badTrajectory) NextTransition() (avail.State, int) {
	if len(b.starts) == 0 {
		return avail.Down, avail.Forever
	}
	s, at := b.states[0], b.starts[0]
	b.states, b.starts = b.states[1:], b.starts[1:]
	return s, at
}

// TestTapeContractErrors pins that a source breaking the Trajectory
// contract makes readers return an error naming it instead of panicking:
// a first run that does not start at slot 0, and a run that does not start
// after the previous one (met while the log is extended).
func TestTapeContractErrors(t *testing.T) {
	good := func() avail.Process { return avail.NewVectorProcess(avail.Vector{avail.Up, avail.Down}) }
	for _, tc := range []struct {
		name string
		bad  *badTrajectory
		want string
	}{
		{"late-start", &badTrajectory{[]avail.State{avail.Up}, []int{3}},
			"availability trajectory 1: first transition at slot 3, want 0"},
		{"not-after", &badTrajectory{[]avail.State{avail.Up, avail.Down, avail.Up}, []int{0, 5, 5}},
			"availability trajectory 1: transition slot 5 not after 5"},
	} {
		var tape avail.Tape
		tape.Reset([]avail.Process{good(), tc.bad}, false, 100)
		var r avail.Reader
		err := r.Rewind(&tape)
		for err == nil && r.Slot() != avail.Forever {
			err = r.Advance()
		}
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: reader error %v, want %q", tc.name, err, tc.want)
		}
	}
}

// BenchmarkTapeExtend times the transition tape layer alone: Reset over P
// Markov3 sources (each one's slot-0 state and first change), then one
// Reader reading the log back to a fixed horizon, which extends it one
// transition at a time — the loser tree's replace-min, the source's
// sojourn draw and the log encoding. P = 20 is Table 2's platform, P = 10k
// largep's. ns/transition divides the time by the transitions read.
func BenchmarkTapeExtend(b *testing.B) {
	const horizon = 1000
	for _, p := range []int{20, 10000} {
		b.Run(map[int]string{20: "p=20", 10000: "p=10k"}[p], func(b *testing.B) {
			r := rng.New(7)
			models := make([]*avail.Markov3, p)
			for i := range models {
				models[i] = avail.RandomMarkov3(r)
			}
			procs := make([]avail.Markov3Process, p)
			gens := make([]rng.PCG, p)
			srcs := make([]avail.Process, p)
			for i := range srcs {
				srcs[i] = &procs[i]
			}
			var tape avail.Tape
			var rd avail.Reader
			transitions := 0
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range procs {
					gens[i].Reseed(uint64(i) + 1)
					procs[i].Reset(models[i], &gens[i], avail.Up)
				}
				tape.Reset(srcs, false, horizon)
				err := rd.Rewind(&tape)
				for ; err == nil && rd.Slot() != avail.Forever; err = rd.Advance() {
					transitions++
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(transitions), "ns/transition")
		})
	}
}
