package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// streamGoldenHeuristics extends the paper's Table 2 set with the
// extensions that reach the engine paths Table 2 does not: the proactive
// class cancels begun work, the passive class declines picks, and the
// batch disciplines bind through the ranked-channel path.
func streamGoldenHeuristics() []string {
	return append(core.Names(),
		"passive-emct", "passive-random", "proactive-emct", "proactive-mct",
		"remct", "deadline", "emct+", "batch-fcfs", "batch-easy")
}

// streamGoldenDigest is the SHA-256 over the %+v rendering of every Result,
// Event and SlotReport of the corpus below. It pins the engine's full
// observable behaviour — crash, cancel and sibling drops included —
// so a refactor of the mutation sites cannot move a single event unnoticed.
const streamGoldenDigest = "22d28eca7d5d2526507d4cd122d600e6e351335f5ba111056bd9522eb609509d"

// TestEngineStreamGolden runs vectorScenarioConfig(seed, h, false) for seeds
// 1..60 and every heuristic of streamGoldenHeuristics, on both clocks, on
// one reused Runner, and digests everything the runs expose.
func TestEngineStreamGolden(t *testing.T) {
	h := sha256.New()
	var cancels, crashes int
	r := sim.NewRunner()
	for seed := uint64(1); seed <= 60; seed++ {
		for _, name := range streamGoldenHeuristics() {
			for _, mode := range []sim.Mode{sim.ModeSlot, sim.ModeEvent} {
				cfg := vectorScenarioConfig(t, seed, name, false)
				cfg.Mode = mode
				cfg.OnEvent = func(ev sim.Event) {
					switch ev.Kind {
					case sim.EvCopyCancelled:
						cancels++
					case sim.EvCrash:
						crashes++
					}
					fmt.Fprintf(h, "%+v\n", ev)
				}
				cfg.Observer = func(rep *sim.SlotReport) { fmt.Fprintf(h, "%+v\n", *rep) }
				res, err := r.Run(cfg)
				if err != nil {
					t.Fatalf("seed %d %s %v: %v", seed, name, mode, err)
				}
				fmt.Fprintf(h, "%+v\n", *res)
			}
		}
	}
	if cancels != 6774 || crashes != 42906 {
		t.Errorf("corpus saw %d cancellations and %d crashes, want 6774 and 42906", cancels, crashes)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != streamGoldenDigest {
		t.Fatalf("engine stream digest = %s, want %s (%d cancellations, %d crashes)",
			got, streamGoldenDigest, cancels, crashes)
	}
}
