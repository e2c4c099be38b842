package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"strings"
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

// streamGoldenTable is the per-pair breakdown of streamGoldenDigest: one
// line per (scheduler, clock), "<scheduler> <clock> <sha256>", in
// streamGoldenHeuristics order, slot clock first. Each digest covers the
// same renderings as the overall one, for that pair's runs only, so a
// mismatch names every pair whose stream moved.
const streamGoldenTable = "testdata/stream_golden.txt"

// TestEngineStreamGolden runs vectorScenarioConfig(seed, h, false) for seeds
// 1..60 and every heuristic of streamGoldenHeuristics, on both clocks, on
// one reused Runner, and digests everything the runs expose: overall, and
// per (scheduler, clock) against streamGoldenTable.
func TestEngineStreamGolden(t *testing.T) {
	modes := []sim.Mode{sim.ModeSlot, sim.ModeEvent}
	pairKey := func(name string, mode sim.Mode) string { return name + " " + mode.String() }
	h := sha256.New()
	pairs := map[string]hash.Hash{}
	var order []string
	for _, name := range streamGoldenHeuristics() {
		for _, mode := range modes {
			k := pairKey(name, mode)
			pairs[k] = sha256.New()
			order = append(order, k)
		}
	}
	var cancels, crashes int
	r := sim.NewRunner()
	for seed := uint64(1); seed <= 60; seed++ {
		for _, name := range streamGoldenHeuristics() {
			for _, mode := range modes {
				w := io.MultiWriter(h, pairs[pairKey(name, mode)])
				cfg := vectorScenarioConfig(t, seed, name, false)
				cfg.Mode = mode
				cfg.OnEvent = func(ev sim.Event) {
					switch ev.Kind {
					case sim.EvCopyCancelled:
						cancels++
					case sim.EvCrash:
						crashes++
					}
					fmt.Fprintf(w, "%+v\n", ev)
				}
				cfg.Observer = func(rep *sim.SlotReport) { fmt.Fprintf(w, "%+v\n", *rep) }
				res, err := r.Run(cfg)
				if err != nil {
					t.Fatalf("seed %d %s %v: %v", seed, name, mode, err)
				}
				fmt.Fprintf(w, "%+v\n", *res)
			}
		}
	}

	raw, err := os.ReadFile(streamGoldenTable)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			t.Fatalf("%s: malformed line %q", streamGoldenTable, line)
		}
		want[f[0]+" "+f[1]] = f[2]
	}
	for _, k := range order {
		got := hex.EncodeToString(pairs[k].Sum(nil))
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: not in %s (digest %s)", k, streamGoldenTable, got)
		case w != got:
			t.Errorf("%s: stream moved: digest %s, want %s", k, got, w)
		}
		delete(want, k)
	}
	for k := range want {
		t.Errorf("%s: in %s but not run", k, streamGoldenTable)
	}

	if cancels != 6774 || crashes != 42906 {
		t.Errorf("corpus saw %d cancellations and %d crashes, want 6774 and 42906", cancels, crashes)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != streamGoldenDigest {
		t.Fatalf("engine stream digest = %s, want %s (%d cancellations, %d crashes)",
			got, streamGoldenDigest, cancels, crashes)
	}
}
