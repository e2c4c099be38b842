package sim

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/platform"
)

// dropModel is an arbitrary valid model for workers driven by vectors.
var dropModel = avail.MustMarkov3([3][3]float64{{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.1, 0.1, 0.8}})

// dropRun runs the config mk builds (fresh availability processes each
// time) on both clocks with slow checks armed. check is called after every
// executed slot with the runner (whose engine holds the slot's final state)
// and the slot's events; the run must complete.
func dropRun(t *testing.T, mk func() Config, check func(mode Mode, r *Runner, slot int, evs []Event)) {
	t.Helper()
	for _, mode := range []Mode{ModeSlot, ModeEvent} {
		r := NewRunner()
		r.EnableSlowChecks()
		var evs []Event
		cfg := mk()
		cfg.Mode = mode
		cfg.OnEvent = func(ev Event) { evs = append(evs, ev) }
		cfg.Observer = func(rep *SlotReport) {
			check(mode, r, rep.Slot, evs)
			evs = evs[:0]
		}
		res, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("mode %v: run censored", mode)
		}
	}
}

// eventsOf filters evs to one kind.
func eventsOf(evs []Event, kind EventKind) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// pipelineConfig builds one worker (W = 4) that computes task 0 while task 1's
// data is already prefetched: slot 0 sends the program, slot 1 task 0's
// data, slot 2 task 1's data, and task 0 computes from slot 2 on.
func pipelineConfig(t *testing.T, vec string, s Scheduler) func() Config {
	v, err := avail.ParseVector(vec)
	if err != nil {
		t.Fatal(err)
	}
	return func() Config {
		return Config{
			Platform:  platform.Homogeneous(1, 4, dropModel),
			Params:    platform.Params{M: 2, Iterations: 1, Ncom: 1, Tprog: 1, Tdata: 1, MaxSlots: 60},
			Procs:     []avail.Process{avail.NewVectorProcess(v)},
			Scheduler: s,
		}
	}
}

// checkPipelineHeld asserts worker 0 holds the program, task 0 computing and
// task 1 incoming.
func checkPipelineHeld(t *testing.T, mode Mode, e *engine, slot int) {
	t.Helper()
	w := &e.workers[0]
	if w.progRecv != 1 || w.computing == nil || w.computing.task != 0 ||
		w.incoming == nil || w.incoming.task != 1 {
		t.Fatalf("mode %v slot %d: pipeline not set up (progRecv %d, computing %+v, incoming %+v)",
			mode, slot, w.progRecv, w.computing, w.incoming)
	}
}

// checkBothPending asserts no copy of either task survives and both are
// back among the pending originals.
func checkBothPending(t *testing.T, mode Mode, e *engine, slot int) {
	t.Helper()
	if e.workers[0].busy() || e.nBusy != 0 {
		t.Fatalf("mode %v slot %d: worker still busy after the drop", mode, slot)
	}
	for task := 0; task < 2; task++ {
		if c := e.tasks[task].copies; c != 0 || len(e.holders[task]) != 0 {
			t.Fatalf("mode %v slot %d: task %d keeps %d copies, holders %v", mode, slot, task, c, e.holders[task])
		}
	}
	if n := e.trk.pending.size(); n != 2 {
		t.Fatalf("mode %v slot %d: %d pending originals, want 2", mode, slot, n)
	}
}

// TestDropCrashLosesEverything pins the crash drop: a worker crashing with
// a copy computing and another prefetched loses its program and both
// copies, both tasks return to the pending originals, and the lost work is
// wasted — with a crash event and no cancellation.
func TestDropCrashLosesEverything(t *testing.T) {
	crashed := 0 // modes that reached the checked slot
	dropRun(t, pipelineConfig(t, "uuuuudu", pickFirst{}), func(mode Mode, r *Runner, slot int, evs []Event) {
		e := &r.e
		switch slot {
		case 4:
			checkPipelineHeld(t, mode, e, slot)
		case 5:
			crashed++
			if e.workers[0].progRecv != 0 {
				t.Fatalf("mode %v: crash kept %d program slots", mode, e.workers[0].progRecv)
			}
			checkBothPending(t, mode, e, slot)
			if n, c := len(eventsOf(evs, EvCrash)), len(eventsOf(evs, EvCopyCancelled)); n != 1 || c != 0 {
				t.Fatalf("mode %v: %d crash and %d cancel events, want 1 and 0", mode, n, c)
			}
			st := e.stats
			if st.WastedProgramSlots != 1 || st.WastedDataSlots != 2 || st.WastedComputeSlots != 3 {
				t.Fatalf("mode %v: wasted program/data/compute = %d/%d/%d, want 1/2/3", mode,
					st.WastedProgramSlots, st.WastedDataSlots, st.WastedComputeSlots)
			}
		}
	})
	if crashed != 2 {
		t.Fatalf("slot 5 never executed on %d of 2 clocks", 2-crashed)
	}
}

// cancelAt cancels worker 0's begun work in slot at and declines every pick
// of that slot, so the emptied pipeline is what the slot leaves behind.
type cancelAt struct{ at int }

func (cancelAt) Name() string { return "cancel-at" }
func (c cancelAt) Pick(v *View, eligible []int, _ *RoundState, _ TaskInfo) int {
	if v.Slot == c.at {
		return Decline
	}
	return eligible[0]
}
func (c cancelAt) Cancel(v *View) []int {
	if v.Slot == c.at {
		return []int{0}
	}
	return nil
}

// TestDropCancelClearsPipeline pins the proactive cancel: it drops both the
// computing and the prefetched copy — computing first, one cancellation
// event each — and returns both tasks to the pending originals, but the
// worker keeps its program.
func TestDropCancelClearsPipeline(t *testing.T) {
	cancelled := 0 // modes that reached the checked slot
	dropRun(t, pipelineConfig(t, "u", cancelAt{at: 4}), func(mode Mode, r *Runner, slot int, evs []Event) {
		e := &r.e
		switch slot {
		case 3:
			checkPipelineHeld(t, mode, e, slot)
		case 4:
			cancelled++
			if e.workers[0].progRecv != 1 {
				t.Fatalf("mode %v: cancel left %d program slots, want 1", mode, e.workers[0].progRecv)
			}
			checkBothPending(t, mode, e, slot)
			c := eventsOf(evs, EvCopyCancelled)
			if len(c) != 2 || c[0].Task != 0 || c[1].Task != 1 || len(eventsOf(evs, EvCrash)) != 0 {
				t.Fatalf("mode %v: events %+v, want cancellations of task 0 then task 1", mode, evs)
			}
			st := e.stats
			if st.WastedProgramSlots != 0 || st.WastedDataSlots != 2 || st.WastedComputeSlots != 2 {
				t.Fatalf("mode %v: wasted program/data/compute = %d/%d/%d, want 0/2/2", mode,
					st.WastedProgramSlots, st.WastedDataSlots, st.WastedComputeSlots)
			}
		}
	})
	if cancelled != 2 {
		t.Fatalf("slot 4 never executed on %d of 2 clocks", 2-cancelled)
	}
}

// siblingScript plans every original on worker 1 and task 0's replica on
// worker 0, declining every other replica.
type siblingScript struct{}

func (siblingScript) Name() string { return "sibling-script" }
func (siblingScript) Pick(_ *View, eligible []int, _ *RoundState, ti TaskInfo) int {
	if !ti.Replica {
		return 1
	}
	if ti.Task == 0 && eligible[0] == 0 {
		return 0
	}
	return Decline
}

// TestDropSiblingKeepsProgramAndOtherTask pins the sibling cancellation:
// worker 0 (W = 1) finishes task 0's replica while worker 1 (W = 4) computes
// the original and holds task 1's copy. Worker 1 loses its task 0 copy —
// one cancellation event — but keeps its program and task 1's copy.
func TestDropSiblingKeepsProgramAndOtherTask(t *testing.T) {
	pl := platform.Homogeneous(3, 4, dropModel)
	pl.Processors[0].W = 1
	mk := func() Config {
		procs := make([]avail.Process, 3)
		for i := range procs {
			procs[i] = avail.NewVectorProcess(avail.Vector{avail.Up})
		}
		return Config{
			Platform:  pl,
			Params:    platform.Params{M: 2, Iterations: 1, Ncom: 3, Tprog: 1, Tdata: 1, MaxReplicas: 1, MaxSlots: 60},
			Procs:     procs,
			Scheduler: siblingScript{},
		}
	}
	seen := 0 // modes that reached the checked slot
	dropRun(t, mk, func(mode Mode, r *Runner, slot int, evs []Event) {
		c := eventsOf(evs, EvCopyCancelled)
		if len(c) == 0 {
			return
		}
		seen++
		e := &r.e
		if slot != 2 || len(c) != 1 || c[0].Worker != 1 || c[0].Task != 0 {
			t.Fatalf("mode %v slot %d: cancellations %+v, want worker 1's task 0 copy in slot 2", mode, slot, c)
		}
		w := &e.workers[1]
		held := w.computing
		if held == nil {
			held = w.incoming
		}
		if w.progRecv != 1 || held == nil || held.task != 1 {
			t.Fatalf("mode %v: worker 1 after the sibling drop: progRecv %d, computing %+v, incoming %+v",
				mode, w.progRecv, w.computing, w.incoming)
		}
		if e.tasks[1].copies != 1 || len(e.holders[1]) != 1 || e.holders[1][0] != 1 {
			t.Fatalf("mode %v: task 1 copies %d, holders %v, want 1 copy on worker 1",
				mode, e.tasks[1].copies, e.holders[1])
		}
	})
	if seen != 2 {
		t.Fatalf("no sibling cancellation happened on %d of 2 clocks", 2-seen)
	}
}
