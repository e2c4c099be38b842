package volatile

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRunnerTapeReuse drives one Runner through instances in the order A,
// B, A across both time bases, with batch runs between heuristic runs, and
// requires every result to equal a run on a fresh Runner. The Runner
// replays one recorded trial keyed by (scenario, trial seed, time base);
// the sequence changes exactly one part of that key at a time (and repeats
// keys after others evicted them), so a tape reused under a wrong key or a
// scheduler stream split from the wrong RNG state shows up as a mismatch.
func TestRunnerTapeReuse(t *testing.T) {
	a := NewScenario(5, Cell{Tasks: 10, Ncom: 5, Wmin: 2}, ScenarioOptions{Iterations: 4})
	b := NewScenario(6, Cell{Tasks: 10, Ncom: 5, Wmin: 2}, ScenarioOptions{Iterations: 4})
	scenarios := map[string]*Scenario{"A": a, "B": b}
	type step struct {
		scn       string
		seed      uint64
		mode      Mode
		contender string // a heuristic, or a batch discipline
	}
	steps := []step{
		{"A", 1, ModeSlot, "emct"},
		{"A", 1, ModeSlot, BatchFCFS},
		{"A", 1, ModeSlot, "random"},
		{"A", 1, ModeEvent, "random"},
		{"A", 1, ModeEvent, BatchEASY},
		{"A", 1, ModeEvent, "mct*"},
		{"B", 1, ModeSlot, "random"},
		{"B", 1, ModeEvent, "emct"},
		{"A", 1, ModeSlot, "mct*"},
		{"A", 1, ModeEvent, "emct"},
		{"A", 2, ModeSlot, "random"},
		{"A", 2, ModeSlot, BatchFCFS},
		{"A", 2, ModeEvent, "random"},
		{"B", 2, ModeEvent, "mct*"},
		{"A", 2, ModeSlot, "emct"},
		{"A", 1, ModeSlot, BatchEASY},
		{"A", 1, ModeSlot, "random"},
	}
	rn := NewRunner()
	for i, st := range steps {
		scn := scenarios[st.scn]
		name := fmt.Sprintf("step %d (%s seed %d %v %s)", i, st.scn, st.seed, st.mode, st.contender)
		rn.SetMode(st.mode)
		got, err := scn.RunWith(rn, st.contender, st.seed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := scn.RunMode(st.contender, st.seed, st.mode)
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: pooled run %+v, fresh %+v", name, got, want)
		}
	}
}
