package volatile

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sim"
)

// failingSched behaves on its first instantiation (sweep validation no
// longer runs probe instances, so that one is a real sweep run) and then
// violates the scheduler protocol on every later run, so every worker hits
// the error path.
type failingSched struct{ ok bool }

func (s *failingSched) Name() string { return "test-failing" }
func (s *failingSched) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	if s.ok {
		return eligible[0]
	}
	return -99 // ineligible: the engine reports a scheduler protocol error
}

// TestRunSweepErrorReturnsInsteadOfDeadlocking is the regression test for
// the sweep error path: when every chunk fails, the committer must stop at
// the first failing chunk and release the feeder (the job feed once blocked
// forever once no worker was left receiving), and that chunk's error must
// surface.
func TestRunSweepErrorReturnsInsteadOfDeadlocking(t *testing.T) {
	var instances atomic.Int64
	if err := core.Register("test-failing", func(*rng.PCG) sim.Scheduler {
		return &failingSched{ok: instances.Add(1) == 1}
	}); err != nil {
		t.Fatal(err)
	}

	cfg := SweepConfig{
		Cells:      []Cell{{Tasks: 2, Ncom: 2, Wmin: 1}},
		Heuristics: []string{"test-failing"},
		Scenarios:  4,
		Trials:     2,
		Seed:       7,
		Workers:    2, // fewer workers than jobs: the feeder must outlive their abort
	}
	type outcome struct {
		res *SweepResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunSweep(cfg)
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err == nil {
			t.Fatalf("RunSweep = %+v, want a scheduler error", out.res)
		}
		if !strings.Contains(out.err.Error(), "test-failing") {
			t.Fatalf("error %q does not name the failing heuristic", out.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunSweep deadlocked on the all-workers-error path")
	}
}

// cellFailNcom is the channel count of the one grid cell whose runs
// cellFailSched breaks.
const cellFailNcom = 3

// cellFailSched picks the lowest eligible processor. Once armed, on a
// platform with cellFailNcom channels it breaks the scheduler protocol from
// iteration 3 on, at the first pick made while copies are in flight, so
// that cell's runs fail mid-run with engine state to leave behind.
type cellFailSched struct{ armed *atomic.Bool }

func (s cellFailSched) Name() string { return "test-cellfail" }
func (s cellFailSched) Pick(v *sim.View, eligible []int, rs *sim.RoundState, ti sim.TaskInfo) int {
	if s.armed.Load() && v.Params.Ncom == cellFailNcom && v.Iteration >= 3 {
		for i := range v.Procs {
			if v.Procs[i].Busy() {
				return -99 // ineligible: the engine reports a scheduler protocol error
			}
		}
	}
	return eligible[0]
}

// TestContenderErrorDropsOnlyItsCell pins that a failed run leaves nothing
// behind on the worker's reused Runner: a contender that fails mid-run on
// one cell only, under ContinueOnError, drops exactly that cell's
// instances, and every other cell's rows equal those of the same sweep
// with the contender never failing. The failing cell runs first on a single
// worker, so every later run reuses the engines the failed runs left.
func TestContenderErrorDropsOnlyItsCell(t *testing.T) {
	var armed atomic.Bool
	if err := core.Register("test-cellfail", func(*rng.PCG) sim.Scheduler {
		return cellFailSched{armed: &armed}
	}); err != nil {
		t.Fatal(err)
	}
	failCell := Cell{Tasks: 6, Ncom: cellFailNcom, Wmin: 1}
	for _, mode := range []Mode{ModeSlot, ModeEvent} {
		cfg := SweepConfig{
			Cells:           []Cell{failCell, {Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 8, Ncom: 4, Wmin: 2}},
			Heuristics:      []string{"emct", "test-cellfail", "mct*"},
			Scenarios:       3,
			Trials:          2,
			Seed:            1234,
			Workers:         1,
			Mode:            mode,
			ContinueOnError: true,
		}
		armed.Store(false)
		ref, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("%v: unarmed sweep: %v", mode, err)
		}
		armed.Store(true)
		got, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("%v: armed sweep under ContinueOnError: %v", mode, err)
		}
		perCell := cfg.Scenarios * cfg.Trials
		if ref.FailedInstances != 0 || got.FailedInstances != perCell || got.Instances != ref.Instances-perCell {
			t.Fatalf("%v: failed/instances = %d/%d armed, %d/%d unarmed; want %d failed, one cell fewer",
				mode, got.FailedInstances, got.Instances, ref.FailedInstances, ref.Instances, perCell)
		}
		if len(got.InstanceErrors) == 0 || !strings.Contains(got.InstanceErrors[0], "picked ineligible processor") {
			t.Fatalf("%v: InstanceErrors %v do not sample the protocol error", mode, got.InstanceErrors)
		}
		if len(ref.ByCell[failCell]) == 0 || len(got.ByCell[failCell]) != 0 {
			t.Fatalf("%v: failing cell has %d rows armed, %d unarmed; want none armed",
				mode, len(got.ByCell[failCell]), len(ref.ByCell[failCell]))
		}
		for _, c := range cfg.Cells[1:] {
			if !reflect.DeepEqual(got.ByCell[c], ref.ByCell[c]) {
				t.Fatalf("%v: cell %+v rows moved after the failed runs:\n got  %+v\n want %+v",
					mode, c, got.ByCell[c], ref.ByCell[c])
			}
		}
	}
}

// TestRunSweepHugeGridStopsWithoutAllocating pins that a sweep's memory does
// not grow with its chunk count: 2^40 scenarios per cell of the paper grid
// fit the instance counter, and a sweep stopped before it starts returns
// *InterruptedError instead of sizing anything by the chunk count.
func TestRunSweepHugeGridStopsWithoutAllocating(t *testing.T) {
	cfg := Table2Config(1<<40, 1, 0)
	cfg.Workers = 1
	stop := make(chan struct{})
	close(stop)
	cfg.Stop = stop
	_, err := RunSweep(cfg)
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("stopped huge sweep returned %v, want *InterruptedError", err)
	}
	if want := len(cfg.Cells) << 40; ie.Chunks != want {
		t.Fatalf("InterruptedError.Chunks = %d, want %d", ie.Chunks, want)
	}
}

// TestSweepInstanceCountOverflowRejected pins that a grid whose instance
// count overflows int is rejected by RunSweep and ConfigDigest alike.
func TestSweepInstanceCountOverflowRejected(t *testing.T) {
	cfg := Table2Config(math.MaxInt/2, 3, 0)
	if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("RunSweep = %v, want an overflow error", err)
	}
	if _, err := cfg.ConfigDigest(); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("ConfigDigest = %v, want an overflow error", err)
	}
}
