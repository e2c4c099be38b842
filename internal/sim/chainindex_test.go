package sim

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/platform"
)

// pickFirst plans every task on the first eligible worker.
type pickFirst struct{}

func (pickFirst) Name() string { return "pick-first" }
func (pickFirst) Pick(_ *View, eligible []int, _ *RoundState, _ TaskInfo) int {
	return eligible[0]
}

// TestRoundStopChainIndexAcrossReclaim follows one bound chain through
// UP -> RECLAIMED -> UP on both clocks, slow checks armed (verifyChains
// rescans the index every slot). Worker 0 receives its program in slots 0
// and 1, is RECLAIMED in slots 2 and 3, and is UP again from slot 4: its
// chain must leave the UP-chain index while RECLAIMED, come back when it
// returns, and get a channel in that very slot.
func TestRoundStopChainIndexAcrossReclaim(t *testing.T) {
	for _, mode := range []Mode{ModeSlot, ModeEvent} {
		vec, err := avail.ParseVector("uurruuuuuuuu")
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner()
		r.EnableSlowChecks()
		inIndex := map[int]bool{}
		transfers := map[int]int{}
		res, err := r.Run(Config{
			Platform:  platform.Homogeneous(1, 1, avail.MustMarkov3([3][3]float64{{0.9, 0.05, 0.05}, {0.1, 0.8, 0.1}, {0.1, 0.1, 0.8}})),
			Params:    platform.Params{M: 1, Iterations: 1, Ncom: 1, Tprog: 2, Tdata: 2},
			Procs:     []avail.Process{avail.NewVectorProcess(vec)},
			Scheduler: pickFirst{},
			Mode:      mode,
			Observer: func(rep *SlotReport) {
				inIndex[rep.Slot] = r.e.origChains.contains(0)
				transfers[rep.Slot] = rep.TransfersUsed
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Slots 0-1 program, 2-3 suspended, 4-5 data, 6 compute.
		if !res.Completed || res.Makespan != 7 {
			t.Fatalf("mode %v: makespan %d (completed %v), want 7", mode, res.Makespan, res.Completed)
		}
		for slot, want := range []bool{true, true, false, false, true, false} {
			if inIndex[slot] != want {
				t.Errorf("mode %v: slot %d: chain in the UP-chain index = %v, want %v",
					mode, slot, inIndex[slot], want)
			}
		}
		for slot, want := range []int{1, 1, 0, 0, 1, 1} {
			if transfers[slot] != want {
				t.Errorf("mode %v: slot %d: %d transfers, want %d", mode, slot, transfers[slot], want)
			}
		}
	}
}
