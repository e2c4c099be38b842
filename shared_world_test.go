package volatile

import (
	"fmt"
	"reflect"
	"testing"
)

// crashAt is one EvCrash occurrence: the slot and the worker that went DOWN.
type crashAt struct{ slot, worker int }

// TestContendersShareOneWorld pins the premise of the dfb metric: on one
// Runner, as in a sweep worker, every contender of an instance — a
// heuristic and both batch disciplines — replays the same availability
// trajectories, in either time base. Crash events are emitted for every
// transition into DOWN whatever the scheduler does, so the (slot, worker)
// sequences must agree up to the shortest makespan of the instance.
func TestContendersShareOneWorld(t *testing.T) {
	contenders := []string{"emct", BatchFCFS, BatchEASY}
	for _, mode := range []Mode{ModeSlot, ModeEvent} {
		rn := NewRunner()
		rn.SetMode(mode)
		compared := 0
		for seed := uint64(1); seed <= 24; seed++ {
			scn := NewScenario(seed, Cell{Tasks: 10, Ncom: 5, Wmin: 2}, ScenarioOptions{Iterations: 3})
			crashes := make([][]crashAt, len(contenders))
			horizon := -1
			for k, h := range contenders {
				res, err := scn.run(rn, h, seed, nil, func(ev Event) {
					if ev.Kind == EvCrash {
						crashes[k] = append(crashes[k], crashAt{ev.Slot, ev.Worker})
					}
				}, nil)
				if err != nil {
					t.Fatalf("%v seed %d %s: %v", mode, seed, h, err)
				}
				if horizon < 0 || res.Makespan < horizon {
					horizon = res.Makespan
				}
			}
			for k := range crashes {
				n := 0
				for n < len(crashes[k]) && crashes[k][n].slot < horizon {
					n++
				}
				crashes[k] = crashes[k][:n]
			}
			for k := 1; k < len(contenders); k++ {
				if !reflect.DeepEqual(crashes[0], crashes[k]) {
					t.Errorf("%v seed %d: before slot %d, %s sees crashes %v, %s sees %v", mode, seed, horizon,
						contenders[0], fmtCrashes(crashes[0]), contenders[k], fmtCrashes(crashes[k]))
				}
			}
			compared += len(crashes[0])
		}
		if compared == 0 {
			t.Fatalf("%v: no crash before any instance's shortest makespan; the test compares nothing", mode)
		}
	}
}

func fmtCrashes(cs []crashAt) string {
	if len(cs) > 6 {
		return fmt.Sprintf("%v… (%d)", cs[:6], len(cs))
	}
	return fmt.Sprint(cs)
}
