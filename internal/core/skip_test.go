package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/avail"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

// fullRounds forwards only Name, Pick and PoolSafe to its inner scheduler,
// hiding sim.PickSkipper: the engine then consults Pick for every task of
// every round. It is the full-round reference of the early-stop oracle.
type fullRounds struct{ inner sim.Scheduler }

func (f *fullRounds) Name() string   { return f.inner.Name() }
func (f *fullRounds) PoolSafe() bool { return sim.PoolSafe(f.inner) }
func (f *fullRounds) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	return f.inner.Pick(v, eligible, rs, ti)
}

// fullRoundsCanceller is fullRounds for a proactive inner scheduler: Cancel
// is forwarded too (a Canceller changes the engine's slot skipping, so the
// reference must keep it).
type fullRoundsCanceller struct {
	*fullRounds
	c sim.Canceller
}

func (f fullRoundsCanceller) Cancel(v *sim.View) []int { return f.c.Cancel(v) }

// withFullRounds wraps s so that it runs every pick of every round. A
// scheduler that is no sim.PickSkipper already does, and is returned as is,
// with every other optional interface intact.
func withFullRounds(s sim.Scheduler) sim.Scheduler {
	if _, ok := s.(sim.PickSkipper); !ok {
		return s
	}
	f := &fullRounds{inner: s}
	if c, ok := s.(sim.Canceller); ok {
		return fullRoundsCanceller{f, c}
	}
	return f
}

// skipCounter forwards SkipPicks to a sim.PickSkipper and tallies the
// calls, the picks they stood for, and the calls that were channel-budget
// stops, so the oracle can show that both early stops were actually taken.
// A budget stop leaves some UP worker with no incoming copy unpicked; a
// free-worker stop leaves none.
type skipCounter struct {
	sim.PickSkipper
	calls, picks, budgetStops int
}

func (c *skipCounter) SkipPicks(v *sim.View, eligible []int, rs *sim.RoundState, n int) {
	c.calls++
	c.picks += n
	for _, q := range eligible {
		if !v.Procs[q].HasIncoming && rs.NQ[q] == 0 {
			c.budgetStops++
			break
		}
	}
	c.PickSkipper.SkipPicks(v, eligible, rs, n)
}

// counted is a scheduler whose SkipPicks goes through a skipCounter; every
// other method is the inner scheduler's own.
type counted struct {
	sim.Scheduler
	*skipCounter
}

func (c counted) PoolSafe() bool { return sim.PoolSafe(c.Scheduler) }

type countedCanceller struct {
	counted
	c sim.Canceller
}

func (c countedCanceller) Cancel(v *sim.View) []int { return c.c.Cancel(v) }

// withSkipCounter wraps a PickSkipper so its skipped picks are counted, the
// engine's view of it otherwise unchanged.
func withSkipCounter(s sim.Scheduler, ctr *skipCounter) sim.Scheduler {
	ctr.PickSkipper = s.(sim.PickSkipper)
	c := counted{s, ctr}
	if cc, ok := s.(sim.Canceller); ok {
		return countedCanceller{c, cc}
	}
	return c
}

// skipScenario builds one random scenario deterministically from seed. The
// variety is the point: both clocks, replication on and off, a single
// channel, zero-cost images (Tprog = Tdata = 0), moldable iterations, and
// trace-style vector processes beside Markov ones. Contention (many tasks,
// few channels, long transfers) makes rounds run out of free workers often.
func skipScenario(t *testing.T, seed uint64) sim.Config {
	t.Helper()
	r := rng.New(seed)
	p := 2 + r.Intn(23)
	pl := platform.RandomPlatform(r, p, 1+r.Intn(4))
	prm := platform.Params{
		M:           1 + r.Intn(40),
		Iterations:  1 + r.Intn(3),
		Ncom:        1 + r.Intn(4),
		Tprog:       r.Intn(10),
		Tdata:       r.Intn(4),
		MaxReplicas: r.Intn(3),
		MaxSlots:    20000,
	}
	if r.Intn(4) == 0 {
		prm.Ncom = 1
	}
	if r.Intn(6) == 0 {
		prm.Tprog, prm.Tdata = 0, 0
	}
	vectors := r.Intn(3) == 0
	procs := make([]avail.Process, pl.P())
	for i, proc := range pl.Processors {
		mp := proc.Avail.NewProcess(r.Split(), proc.Avail.SampleStationary(r))
		if vectors && r.Intn(2) == 0 {
			procs[i] = avail.NewVectorProcess(avail.Record(mp, 1+r.Intn(600)))
		} else {
			procs[i] = mp
		}
	}
	cfg := sim.Config{Platform: pl, Params: prm, Procs: procs}
	if r.Intn(2) == 0 {
		cfg.Mode = sim.ModeEvent
	}
	if r.Intn(3) == 0 {
		specs := []string{"maximum-iters", "split-into:2", "split-into:3", "reshape:2"}
		a, err := sim.ParseAllocPolicy(specs[r.Intn(len(specs))])
		if err != nil {
			t.Fatal(err)
		}
		cfg.Alloc = a
	}
	return cfg
}

// skipRun is one run's observable outcome: the result, the event stream,
// and the next 64 draws of the scheduler's random stream.
type skipRun struct {
	res    *sim.Result
	events []sim.Event
	draws  []uint64
}

// runSkipScenario runs the named heuristic, built on a fresh stream from
// schedSeed and wrapped by wrap, on scenario seed.
func runSkipScenario(t *testing.T, name string, seed, schedSeed uint64, wrap func(sim.Scheduler) sim.Scheduler) skipRun {
	t.Helper()
	r := rng.New(schedSeed)
	s, err := New(name, r)
	if err != nil {
		t.Fatal(err)
	}
	cfg := skipScenario(t, seed)
	cfg.Scheduler = wrap(s)
	var out skipRun
	cfg.OnEvent = func(ev sim.Event) { out.events = append(out.events, ev) }
	if out.res, err = sim.Run(cfg); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	for i := 0; i < 64; i++ {
		out.draws = append(out.draws, r.Uint64())
	}
	return out
}

// distinctHeuristics lists one registered name per distinct heuristic:
// names whose scheduler reports a different Name (aliases registered by
// other tests) are left out.
func distinctHeuristics(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, name := range AllNamesSorted() {
		s, err := New(name, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() == name {
			names = append(names, name)
		}
	}
	return names
}

// TestPickSkipperMatchesFullRounds is the equivalence oracle of the early
// round stop: every registered heuristic, run bare (stopping each round at
// its last bindable pick when it implements sim.PickSkipper) and behind a
// wrapper that runs every pick, must produce the identical Result, event
// stream and scheduler random stream afterwards. A miscounted free-worker
// budget shows in the results; a SkipPicks that makes one draw too few or
// too many shows in the random stream. The test also requires that every
// PickSkipper actually took both early stops, the free-worker stop and the
// channel-budget stop, skipping picks, on these scenarios.
func TestPickSkipperMatchesFullRounds(t *testing.T) {
	const scenarios = 40
	for i, name := range distinctHeuristics(t) {
		skips := &skipCounter{}
		for k := uint64(0); k < scenarios; k++ {
			seed, schedSeed := 7919*k+uint64(i), 104729*k+uint64(i)<<20
			full := runSkipScenario(t, name, seed, schedSeed, withFullRounds)
			bare := runSkipScenario(t, name, seed, schedSeed, func(s sim.Scheduler) sim.Scheduler { return s })
			if !reflect.DeepEqual(bare.res, full.res) {
				t.Fatalf("%s scenario %d: result differs from the full-round run:\n got  %+v\n want %+v",
					name, seed, bare.res, full.res)
			}
			if !reflect.DeepEqual(bare.events, full.events) {
				t.Fatalf("%s scenario %d: event stream differs from the full-round run (%d vs %d events)",
					name, seed, len(bare.events), len(full.events))
			}
			if !reflect.DeepEqual(bare.draws, full.draws) {
				t.Fatalf("%s scenario %d: scheduler random stream differs after the run", name, seed)
			}
			if _, ok := mustNew(t, name).(sim.PickSkipper); ok {
				wrap := func(s sim.Scheduler) sim.Scheduler { return withSkipCounter(s, skips) }
				if c := runSkipScenario(t, name, seed, schedSeed, wrap); !reflect.DeepEqual(c, bare) {
					t.Fatalf("%s scenario %d: counting wrapper changed the run", name, seed)
				}
			}
		}
		if _, ok := mustNew(t, name).(sim.PickSkipper); ok &&
			(skips.calls == 0 || skips.picks == 0 || skips.budgetStops == 0 || skips.budgetStops == skips.calls) {
			t.Errorf("%s: over %d scenarios %d rounds stopped early (%d at a channel budget), %d picks skipped; want both stops taken",
				name, scenarios, skips.calls, skips.budgetStops, skips.picks)
		}
	}
}

func mustNew(t *testing.T, name string) sim.Scheduler {
	t.Helper()
	s, err := New(name, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPickSkipperImplementers pins which schedulers take the early stop:
// the side-effect-free greedy and deadline heuristics, the random family,
// and the proactive wrapper exactly when its inner heuristic does. The
// passive class and the batch disciplines commit to decisions and must run
// every pick.
func TestPickSkipperImplementers(t *testing.T) {
	want := map[string]bool{
		"passive-emct": false, "passive-mct": false, "passive-ud": false, "passive-random": false,
		"proactive-emct": true, "proactive-mct": true, "deadline": true, "remct": true,
		BatchFCFS: false, BatchEASY: false,
	}
	for _, name := range append(Names(), "mct+", "emct+", "lw+", "ud+") {
		want[name] = true
	}
	for name, skips := range want {
		if _, ok := mustNew(t, name).(sim.PickSkipper); ok != skips {
			t.Errorf("%s implements sim.PickSkipper = %v, want %v", name, ok, skips)
		}
	}
	for _, inner := range []sim.Scheduler{NewPassive(NewEMCT(false)), withFullRounds(NewMCT(false))} {
		s := NewProactive(inner, 1.5)
		if _, ok := s.(sim.PickSkipper); ok {
			t.Errorf("%s implements sim.PickSkipper around an inner heuristic that does not", s.Name())
		}
		if _, ok := s.(sim.Canceller); !ok || !sim.PoolSafe(s) != !sim.PoolSafe(inner) {
			t.Errorf("%s lost Cancel or PoolSafe when hiding SkipPicks", s.Name())
		}
	}
}

// TestRandomSkipPicksMatchesPicks checks SkipPicks draw for draw against
// Pick for all nine random heuristics, on slates of 1 to 40 workers
// (non-powers of two exercise Intn's rejection loop), including an
// all-zero-weight slate (Pick's uniform fallback; negative weights clamp to
// zero) and a slate with one NaN weight (Categorical's single draw): n
// Picks and SkipPicks(n) must leave the random stream in the same state.
func TestRandomSkipPicksMatchesPicks(t *testing.T) {
	names := []string{"random", "random1", "random2", "random3", "random4",
		"random1w", "random2w", "random3w", "random4w"}
	prm := &platform.Params{M: 40, Ncom: 2, Tprog: 3, Tdata: 1}
	models := []*avail.Markov3{reliableModel(), flakyModel()}
	// Each slate kind rewrites the weighted heuristics' weight function.
	slates := map[string]func(inner WeightFn) WeightFn{
		"model": func(inner WeightFn) WeightFn { return inner },
		"zero": func(WeightFn) WeightFn {
			return func(pv *sim.ProcView) float64 { return -float64(pv.ID % 2) }
		},
		"nan": func(inner WeightFn) WeightFn {
			return func(pv *sim.ProcView) float64 {
				if pv.ID == 0 {
					return math.NaN()
				}
				return inner(pv)
			}
		},
	}
	for _, name := range names {
		for slate, rewrite := range slates {
			build := func(r *rng.PCG) sim.Scheduler {
				s, err := New(name, r)
				if err != nil {
					t.Fatal(err)
				}
				if rs := s.(*randomSched); rs.weight != nil {
					rs.weight = rewrite(rs.weight)
				}
				return s
			}
			for size := 1; size <= 40; size++ {
				v := &sim.View{Params: prm, Procs: make([]sim.ProcView, size)}
				eligible := make([]int, size)
				for q := range eligible {
					eligible[q] = q
					v.Procs[q] = sim.ProcView{ID: q, W: 1 + q%5, State: avail.Up, Model: models[q%len(models)]}
				}
				v.FillAnalytics()
				rs := &sim.RoundState{NQ: make([]int, size)}
				for _, n := range []int{1, 2, 7, 33} {
					seed := uint64(size)<<8 | uint64(n)
					rPick, rSkip := rng.New(seed), rng.New(seed)
					picker, skipper := build(rPick), build(rSkip)
					for i := 0; i < n; i++ {
						picker.Pick(v, eligible, rs, sim.TaskInfo{Task: i})
					}
					skipper.(sim.PickSkipper).SkipPicks(v, eligible, rs, n)
					ph, pl := rPick.State()
					sh, sl := rSkip.State()
					if ph != sh || pl != sl {
						t.Fatalf("%s, %s slate of %d: %d Picks and SkipPicks(%d) leave different streams",
							name, slate, size, n, n)
					}
				}
			}
		}
	}
}
