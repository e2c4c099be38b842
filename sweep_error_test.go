package volatile

import (
	"errors"
	"math"
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
