package volatile

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// sweepConfigDigestFprintf is the reference formulation of the config
// digest: the canonical text written field by field through fmt into a
// SHA-256 hash. Every committed checkpoint, cached result and pinned
// request digest was bound to its output.
func sweepConfigDigestFprintf(flavour string, cells []Cell, heuristics []string,
	scenarios, trials int, opt ScenarioOptions, mode Mode, seed uint64, extra ...string) string {
	h := sha256.New()
	fmt.Fprintf(h, "sweep-config v1\nflavour %s\nseed %d\nmode %s\nscenarios %d\ntrials %d\n",
		flavour, seed, mode, scenarios, trials)
	fmt.Fprintf(h, "options %d %d %d %d %d\n",
		opt.Processors, opt.Iterations, opt.CommScale, opt.MaxReplicas, opt.MaxSlots)
	fmt.Fprintf(h, "cells %d\n", len(cells))
	for _, c := range cells {
		fmt.Fprintf(h, "cell %d %d %d\n", c.Tasks, c.Ncom, c.Wmin)
	}
	fmt.Fprintf(h, "heuristics %d\n", len(heuristics))
	for _, name := range heuristics {
		fmt.Fprintf(h, "h %s\n", name)
	}
	for _, e := range extra {
		fmt.Fprintf(h, "extra %s\n", e)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSweepConfigDigestMatchesFprintf holds the digest to its reference
// text on random configs: empty and many cells, integers over their whole
// range, heuristic names with spaces, unicode, newlines or invalid UTF-8,
// extra lines of every kind plan writes (tracefile hashes included), both
// modes and an undefined one, and every flavour.
func TestSweepConfigDigestMatchesFprintf(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 0xD16E57))
	flavours := []string{"runsweep", "tracesweep", "comparesweep", "moldable"}
	names := append(Heuristics(), "", "h w", "  lead", "trail ", "émct*", "调度", "tab\tbed",
		"new\nline", "bad\xffutf8", "%d %s", strings.Repeat("x", 300))
	anyInt := func() int {
		switch rng.IntN(6) {
		case 0:
			return 0
		case 1:
			return -rng.IntN(1000)
		case 2:
			return math.MaxInt - rng.IntN(3)
		case 3:
			return math.MinInt + rng.IntN(3)
		default:
			return rng.IntN(100000)
		}
	}
	anySeed := func() uint64 {
		switch rng.IntN(3) {
		case 0:
			return uint64(rng.IntN(100))
		case 1:
			return math.MaxUint64 - uint64(rng.IntN(3))
		default:
			return rng.Uint64()
		}
	}
	anyExtra := func() string {
		switch rng.IntN(7) {
		case 0:
			var sum [sha256.Size]byte
			for i := range sum {
				sum[i] = byte(rng.UintN(256))
			}
			return "tracefile " + hex.EncodeToString(sum[:])
		case 1:
			return fmt.Sprintf("tracelen %d", anyInt())
		case 2:
			return "discipline " + BatchDisciplines()[rng.IntN(len(BatchDisciplines()))]
		case 3:
			return "batch-clock event"
		case 4:
			return "alloc " + AllocPolicySpecs()[rng.IntN(len(AllocPolicySpecs()))]
		case 5:
			return fmt.Sprintf("style %s", []TraceStyle{TraceWeibull, TracePareto, TraceLogNormal}[rng.IntN(3)])
		default:
			return names[rng.IntN(len(names))]
		}
	}
	for i := range 2000 {
		cells := make([]Cell, []int{0, 1, 2, 7, 120, 1000}[rng.IntN(6)])
		for k := range cells {
			cells[k] = Cell{Tasks: anyInt(), Ncom: anyInt(), Wmin: anyInt()}
		}
		heuristics := make([]string, rng.IntN(30))
		for k := range heuristics {
			heuristics[k] = names[rng.IntN(len(names))]
		}
		var extra []string
		for range rng.IntN(5) {
			extra = append(extra, anyExtra())
		}
		flavour := flavours[rng.IntN(len(flavours))]
		opt := ScenarioOptions{Processors: anyInt(), Iterations: anyInt(), CommScale: anyInt(),
			MaxReplicas: anyInt(), MaxSlots: anyInt()}
		mode := []Mode{ModeSlot, ModeEvent, Mode(7)}[rng.IntN(3)]
		scenarios, trials, seed := anyInt(), anyInt(), anySeed()

		got := sweepConfigDigest(flavour, cells, heuristics, scenarios, trials, opt, mode, seed, extra...)
		want := sweepConfigDigestFprintf(flavour, cells, heuristics, scenarios, trials, opt, mode, seed, extra...)
		if got != want {
			t.Fatalf("config %d (%s, %d cells, %d heuristics, extra %q, mode %v, seed %d): digest %s, reference %s",
				i, flavour, len(cells), len(heuristics), extra, mode, seed, got, want)
		}
	}
}
