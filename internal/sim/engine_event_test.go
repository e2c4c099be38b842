package sim_test

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

// vectorScenarioConfig builds one random vector-driven scenario
// deterministically from seed, so the same (seed, heuristic) pair can be
// materialized once per mode with independent but identical availability
// processes and schedulers. With sojourn1, every vector changes state at
// every slot until the vector ends, so event mode queues a transition for
// every worker at every slot and can never skip; MaxSlots stays below the
// vector length so runs never reach the hold-forever tail. Without
// sojourn1, the vectors carry multi-slot runs and the quiet-skip machinery
// gets exercised.
func vectorScenarioConfig(t *testing.T, seed uint64, heuristic string, sojourn1 bool) sim.Config {
	t.Helper()
	r := rng.New(seed)
	p := 2 + r.Intn(8)
	wmin := 1 + r.Intn(4)
	pl := platform.RandomPlatform(r, p, wmin)
	prm := platform.Params{
		M:           1 + r.Intn(8),
		Iterations:  1 + r.Intn(3),
		Ncom:        1 + r.Intn(p),
		Tprog:       r.Intn(12),
		Tdata:       r.Intn(4),
		MaxReplicas: r.Intn(3),
		MaxSlots:    600,
	}
	const vecLen = 900
	procs := make([]avail.Process, pl.P())
	for i := 0; i < pl.P(); i++ {
		v := make(avail.Vector, vecLen)
		if sojourn1 {
			v[0] = avail.State(r.Intn(3))
			for s := 1; s < vecLen; s++ {
				// Any state other than the previous one: every slot is a
				// transition for every worker.
				v[s] = (v[s-1] + 1 + avail.State(r.Intn(2))) % 3
			}
		} else {
			st := avail.State(r.Intn(3))
			for s := 0; s < vecLen; {
				run := 1 + r.Intn(40)
				for k := 0; k < run && s < vecLen; k++ {
					v[s] = st
					s++
				}
				st = (st + 1 + avail.State(r.Intn(2))) % 3
			}
		}
		procs[i] = avail.NewVectorProcess(v)
	}
	sched, err := core.New(heuristic, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{Platform: pl, Params: prm, Procs: procs, Scheduler: sched}
}

// runBothModes executes the same (seed, heuristic) scenario in slot mode on
// a plain runner and in event mode on a slow-checked runner (arming the
// full-rebuild oracles plus the quiet-skip reference check), returning
// results, event streams and per-slot observer reports for comparison.
type modeRun struct {
	res     *sim.Result
	events  []sim.Event
	reports []sim.SlotReport
}

func runMode(t *testing.T, runner *sim.Runner, cfg sim.Config, mode sim.Mode) modeRun {
	t.Helper()
	var out modeRun
	cfg.Mode = mode
	cfg.OnEvent = func(ev sim.Event) { out.events = append(out.events, ev) }
	cfg.Observer = func(rep *sim.SlotReport) { out.reports = append(out.reports, *rep) }
	res, err := runner.Run(cfg)
	if err != nil {
		t.Fatalf("mode %v: %v", mode, err)
	}
	out.res = res
	return out
}

func compareModes(t *testing.T, seed uint64, h string, slot, event modeRun) bool {
	t.Helper()
	if !reflect.DeepEqual(slot.res, event.res) {
		t.Logf("seed %d %s: slot result %+v, event result %+v", seed, h, slot.res, event.res)
		return false
	}
	if !reflect.DeepEqual(slot.events, event.events) {
		t.Logf("seed %d %s: event streams differ (%d vs %d events)", seed, h, len(slot.events), len(event.events))
		return false
	}
	if !reflect.DeepEqual(slot.reports, event.reports) {
		t.Logf("seed %d %s: observer reports differ (%d vs %d reports)", seed, h, len(slot.reports), len(event.reports))
		return false
	}
	return true
}

// TestEventModeBitIdenticalSojourn1 pins the strongest cross-mode contract:
// on availability vectors whose state changes at every slot, event mode
// degenerates to slot-by-slot execution (no skips, identical per-slot
// transitions), so every heuristic — including the RNG-consuming random
// family — must reproduce slot mode bit for bit: same result, same event
// stream, same observer reports.
func TestEventModeBitIdenticalSojourn1(t *testing.T) {
	names := append(core.Names(),
		"passive-emct", "passive-mct", "proactive-emct", "proactive-mct",
		"remct", "deadline")
	slotRunner := sim.NewRunner()
	eventRunner := sim.NewRunner()
	eventRunner.EnableSlowChecks()

	f := func(seed uint64, pickH uint8) bool {
		h := names[int(pickH)%len(names)]
		slot := runMode(t, slotRunner, vectorScenarioConfig(t, seed, h, true), sim.ModeSlot)
		event := runMode(t, eventRunner, vectorScenarioConfig(t, seed, h, true), sim.ModeEvent)
		return compareModes(t, seed, h, slot, event)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEventModeBitIdenticalDeterministic exercises the quiet-skip machinery:
// on vectors with multi-slot runs, event mode skips quiet spans, which is
// invisible to any scheduler that consumes no RNG in Pick — the greedy
// family, the incremental/deadline variants, the committing passive
// wrappers, and the proactive wrappers (for which skipping is disabled
// entirely because Cancel may fire anywhere). All must match slot mode bit
// for bit while the event engine runs with the slow-check oracles armed
// (including the quiet-skip reference check).
func TestEventModeBitIdenticalDeterministic(t *testing.T) {
	names := append(core.GreedyNames(),
		"remct", "deadline",
		"passive-emct", "passive-mct", "passive-ud",
		"proactive-emct", "proactive-mct")
	slotRunner := sim.NewRunner()
	eventRunner := sim.NewRunner()
	eventRunner.EnableSlowChecks()

	f := func(seed uint64, pickH uint8) bool {
		h := names[int(pickH)%len(names)]
		slot := runMode(t, slotRunner, vectorScenarioConfig(t, seed, h, false), sim.ModeSlot)
		event := runMode(t, eventRunner, vectorScenarioConfig(t, seed, h, false), sim.ModeEvent)
		return compareModes(t, seed, h, slot, event)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEventModeMarkovSelfConsistent runs Markov-driven scenarios (the
// sojourn-sampled trajectory path) through event mode twice — once with the
// slow-check oracles armed, once plain — and requires identical results and
// event streams. This pins the trajectory-driven clock against the
// full-rebuild references on the availability class the sweeps actually
// use, where slot mode is only distribution-equivalent, not bit-identical.
func TestEventModeMarkovSelfConsistent(t *testing.T) {
	names := append(core.Names(),
		"passive-emct", "proactive-emct", "remct", "deadline")
	checked := sim.NewRunner()
	checked.EnableSlowChecks()
	plain := sim.NewRunner()

	f := func(seed uint64, pickH uint8) bool {
		h := names[int(pickH)%len(names)]
		a := runMode(t, checked, randomScenarioConfig(t, seed, h), sim.ModeEvent)
		b := runMode(t, plain, randomScenarioConfig(t, seed, h), sim.ModeEvent)
		return compareModes(t, seed, h, a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// slotOnlyProc is an availability process without a trajectory view.
type slotOnlyProc struct{}

func (slotOnlyProc) Next() avail.State { return avail.Up }

// TestEventModeRequiresTrajectory pins the validation error: event mode
// must reject processes that cannot report sojourn transitions.
func TestEventModeRequiresTrajectory(t *testing.T) {
	cfg := randomScenarioConfig(t, 7, "emct")
	cfg.Procs[0] = slotOnlyProc{}
	cfg.Mode = sim.ModeEvent
	if _, err := sim.Run(cfg); err == nil || !strings.Contains(err.Error(), "avail.Trajectory") {
		t.Fatalf("want trajectory validation error, got %v", err)
	}
	cfg.Mode = sim.ModeSlot
	if _, err := sim.Run(cfg); err != nil {
		t.Fatalf("slot mode should accept slot-only processes: %v", err)
	}
}

// TestParseMode pins the mode name surface: round-trips, the fail-fast
// error listing valid names, and rejection of undefined Config modes.
func TestParseMode(t *testing.T) {
	for _, want := range []sim.Mode{sim.ModeSlot, sim.ModeEvent} {
		got, err := sim.ParseMode(want.String())
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", want.String(), got, err, want)
		}
	}
	if names := sim.ModeNames(); !reflect.DeepEqual(names, []string{"slot", "event"}) {
		t.Fatalf("ModeNames() = %v", names)
	}
	_, err := sim.ParseMode("bogus")
	if err == nil || !strings.Contains(err.Error(), "slot") || !strings.Contains(err.Error(), "event") {
		t.Fatalf("ParseMode(bogus) error should list valid names, got %v", err)
	}
	cfg := randomScenarioConfig(t, 11, "emct")
	cfg.Mode = sim.Mode(9)
	if _, err := sim.Run(cfg); err == nil || !strings.Contains(err.Error(), "invalid mode") {
		t.Fatalf("want invalid-mode error, got %v", err)
	}
}

// fixedRuns replays fixed (state, slot) runs, however malformed, then holds
// its last state Forever.
type fixedRuns struct {
	states []avail.State
	starts []int
}

func (f *fixedRuns) Next() avail.State { panic("fixedRuns is read run by run") }

func (f *fixedRuns) NextTransition() (avail.State, int) {
	if len(f.starts) == 0 {
		return avail.Up, avail.Forever
	}
	s, at := f.states[0], f.starts[0]
	f.states, f.starts = f.states[1:], f.starts[1:]
	return s, at
}

// TestMalformedTrajectoryErrors pins that a run whose Procs break the
// avail.Trajectory contract returns an error naming the process instead of
// panicking in the tape that records them: a first run that does not start
// at slot 0, and a run that does not start after the previous one, met
// mid-run. It also pins the Procs/Tape exclusivity of Config.
func TestMalformedTrajectoryErrors(t *testing.T) {
	pl := platform.RandomPlatform(rng.New(1), 2, 1)
	prm := platform.Params{M: 2, Iterations: 50, Ncom: 2, Tprog: 1, Tdata: 1, MaxSlots: 100}
	for _, tc := range []struct {
		name string
		bad  *fixedRuns
		want string
	}{
		{"late-start", &fixedRuns{[]avail.State{avail.Up}, []int{3}},
			"sim: availability trajectory 1: first transition at slot 3, want 0"},
		{"not-after", &fixedRuns{[]avail.State{avail.Up, avail.Down, avail.Up}, []int{0, 7, 4}},
			"sim: availability trajectory 1: transition slot 4 not after 7"},
	} {
		procs := []avail.Process{avail.NewVectorProcess(avail.Vector{avail.Up}), tc.bad}
		_, err := sim.NewRunner().Run(sim.Config{Platform: pl, Params: prm, Procs: procs,
			Scheduler: leastLoaded{}, Mode: sim.ModeEvent})
		if err == nil || err.Error() != tc.want {
			t.Fatalf("%s: Run error %v, want %q", tc.name, err, tc.want)
		}
	}

	var tape avail.Tape
	procs := []avail.Process{avail.NewVectorProcess(avail.Vector{avail.Up}), avail.NewVectorProcess(avail.Vector{avail.Up})}
	tape.Reset(procs, true, prm.EffectiveMaxSlots())
	for _, cfg := range []sim.Config{
		{Platform: pl, Params: prm, Procs: procs, Tape: &tape, Scheduler: leastLoaded{}},
		{Platform: platform.RandomPlatform(rng.New(1), 3, 1), Params: prm, Tape: &tape, Scheduler: leastLoaded{}},
	} {
		if _, err := sim.Run(cfg); err == nil {
			t.Fatalf("Run accepted a config with Procs %v and a tape of %d processors for %d", cfg.Procs != nil, tape.P(), cfg.Platform.P())
		}
	}
}
