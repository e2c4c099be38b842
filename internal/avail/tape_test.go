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
// chain and the long vectors have runs too long to pack in a tape entry.
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

// TestTapePerSlotReplay is the per-slot tape's property: several cursors on
// one tape, read in an interleaved order through Next and NextTransition
// with one cursor running far ahead of the others, all replay exactly the
// per-slot Next sequence of a fresh twin of each source up to the horizon,
// and hold the last state past it. One tape serves every seed of a source,
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
				want := make([]avail.Vector, procs)
				for i := range srcs {
					s := seed*8 + uint64(i)
					srcs[i] = src.make(s)
					want[i] = avail.Record(src.make(s), limit)
				}
				tape.Reset(srcs, true, limit)

				// The runner-ahead reads every processor's whole horizon (and
				// past it) before anyone else starts.
				ahead := tape.Replay()
				for i := range ahead {
					got := avail.Record(ahead[i], limit+50)
					checkSlots(t, "ahead", i, got, want[i], limit)
				}
				// The others interleave: a slot cursor and a run cursor per
				// processor, advanced in random chunks.
				slotCur := make([]*avail.Cursor, procs)
				runCur := make([]*avail.Cursor, procs)
				slotGot := make([]avail.Vector, procs)
				runs := make([]runReader, procs)
				for i := range slotCur {
					slotCur[i], runCur[i] = tape.Cursor(i), tape.Cursor(i)
				}
				for busy := true; busy; {
					busy = false
					for i := 0; i < procs; i++ {
						for k := r.Intn(40); k > 0 && len(slotGot[i]) < limit+20; k-- {
							slotGot[i] = append(slotGot[i], slotCur[i].Next())
						}
						for k := r.Intn(4); k > 0 && !runs[i].done; k-- {
							runs[i].read(t, runCur[i])
						}
						busy = busy || len(slotGot[i]) < limit+20 || !runs[i].done
					}
				}
				for i := 0; i < procs; i++ {
					checkSlots(t, "slot cursor", i, slotGot[i], want[i], limit)
					checkSlots(t, "run cursor", i, runs[i].slots(limit+20), want[i], limit)
					if runs[i].last >= limit {
						t.Fatalf("proc %d: run recorded at slot %d, at or past the horizon %d", i, runs[i].last, limit)
					}
				}
				// A replay set handed out again starts from slot 0.
				again := tape.Replay()
				checkSlots(t, "replayed again", 0, avail.Record(again[0], limit), want[0], limit)
			})
		}
	}
}

// checkSlots compares a replayed sequence with the reference up to the
// horizon and requires the last state to hold past it.
func checkSlots(t *testing.T, who string, proc int, got, want avail.Vector, limit int) {
	t.Helper()
	for s := 0; s < limit; s++ {
		if got[s] != want[s] {
			t.Fatalf("%s proc %d: slot %d replays %v, source drew %v", who, proc, s, got[s], want[s])
		}
	}
	for s := limit; s < len(got); s++ {
		if got[s] != want[limit-1] {
			t.Fatalf("%s proc %d: slot %d past the horizon %d replays %v, want the last state %v",
				who, proc, s, limit, got[s], want[limit-1])
		}
	}
}

// runReader accumulates a cursor's NextTransition runs, checking the
// Trajectory contract as it goes.
type runReader struct {
	states []avail.State
	starts []int
	last   int
	done   bool
}

func (rr *runReader) read(t *testing.T, c avail.Trajectory) {
	t.Helper()
	s, at := c.NextTransition()
	switch {
	case at == avail.Forever:
		if len(rr.states) == 0 || s != rr.states[len(rr.states)-1] {
			t.Fatalf("Forever with state %v after runs %v", s, rr.states)
		}
		rr.done = true
		if s2, at2 := c.NextTransition(); s2 != s || at2 != avail.Forever {
			t.Fatalf("Forever not repeated: (%v, %d) after (%v, Forever)", s2, at2, s)
		}
		return
	case len(rr.starts) == 0 && at != 0:
		t.Fatalf("first run at slot %d, want 0", at)
	case len(rr.starts) > 0 && at <= rr.last:
		t.Fatalf("run at slot %d not after %d", at, rr.last)
	}
	rr.states = append(rr.states, s)
	rr.starts = append(rr.starts, at)
	rr.last = at
}

// slots expands the runs read so far into n per-slot states.
func (rr *runReader) slots(n int) avail.Vector {
	v := make(avail.Vector, 0, n)
	for k, s := range rr.states {
		end := n
		if k+1 < len(rr.starts) && rr.starts[k+1] < n {
			end = rr.starts[k+1]
		}
		for len(v) < end {
			v = append(v, s)
		}
	}
	return v
}

// TestTapeTransitionReplay pins the transition tape: every cursor replays
// exactly a fresh twin's NextTransition runs that start before the horizon,
// then Forever; Next on such a cursor replays those runs slot by slot; and
// SlotTrajectory refuses its cursors, whose runs are sojourn-sampled.
func TestTapeTransitionReplay(t *testing.T) {
	const procs = 4
	for _, src := range tapeSources() {
		for seed := uint64(1); seed <= 8; seed++ {
			r := rng.New(seed * 31)
			limit := 1 + r.Intn(2*src.horizon)
			srcs := make([]avail.Process, procs)
			want := make([]runReader, procs)
			for i := range srcs {
				s := seed*procs + uint64(i)
				srcs[i] = src.make(s)
				twin := src.make(s).(avail.Trajectory)
				for !want[i].done {
					st, at := twin.NextTransition()
					if at >= limit && len(want[i].starts) > 0 {
						want[i].done = true
						break
					}
					want[i].states = append(want[i].states, st)
					want[i].starts = append(want[i].starts, at)
				}
			}
			var tape avail.Tape
			tape.Reset(srcs, false, limit)
			cursors := tape.Replay()
			for i, p := range cursors {
				c := p.(*avail.Cursor)
				if _, ok := avail.SlotTrajectory(c); ok {
					t.Fatalf("%s: SlotTrajectory accepted a transition-tape cursor", src.name)
				}
				var got runReader
				for !got.done {
					got.read(t, c)
				}
				if fmt.Sprint(got.states, got.starts) != fmt.Sprint(want[i].states, want[i].starts) {
					t.Fatalf("%s seed %d proc %d: replayed runs %v@%v, source %v@%v", src.name, seed, i,
						got.states, got.starts, want[i].states, want[i].starts)
				}
				slots := avail.Record(tape.Cursor(i), limit+10)
				if exp := want[i].slots(limit + 10); slots.String() != exp.String() {
					t.Fatalf("%s seed %d proc %d: Next replays %v, runs give %v", src.name, seed, i, slots, exp)
				}
			}
		}
	}
}

// TestTapeHorizonCap checks that a per-slot tape never draws a slot at or
// past its horizon, answers Forever once the last run reaches it, and that
// an absorbed process (a vector past its end) costs no per-slot stepping.
func TestTapeHorizonCap(t *testing.T) {
	m := avail.MustMarkov3([3][3]float64{{0.999, 0.0005, 0.0005}, {0.3, 0.4, 0.3}, {0.3, 0.3, 0.4}})
	const limit = 50
	src := &countingSource{Process: m.NewProcess(rng.New(3), avail.Up)}
	var tape avail.Tape
	tape.Reset([]avail.Process{src, avail.NewVectorProcess(avail.Vector{avail.Up, avail.Down})}, true, limit)
	c := tape.Cursor(0)
	var rr runReader
	for !rr.done {
		rr.read(t, c)
	}
	if src.n != limit {
		t.Fatalf("source drew %d slots, want exactly the horizon %d", src.n, limit)
	}
	if s, at := tape.Cursor(1).NextTransition(); s != avail.Up || at != 0 {
		t.Fatalf("vector first run (%v, %d), want (u, 0)", s, at)
	}
	vc := tape.Cursor(1)
	vc.NextTransition()
	if s, at := vc.NextTransition(); s != avail.Down || at != 1 {
		t.Fatalf("vector second run (%v, %d), want (d, 1)", s, at)
	}
	if s, at := vc.NextTransition(); s != avail.Down || at != avail.Forever {
		t.Fatalf("vector past its end (%v, %d), want (d, Forever)", s, at)
	}
}
