package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/avail"
	"repro/internal/losertree"
	"repro/internal/sim"
)

// forceHeapArgmin lowers the heap threshold so every cached Pick routes
// through the heap path, restoring it when the test ends.
func forceHeapArgmin(t testing.TB, n int) {
	t.Helper()
	old := greedyHeapMinEligible
	greedyHeapMinEligible = n
	t.Cleanup(func() { greedyHeapMinEligible = old })
}

// TestHeapArgminPickStreamMatchesFlat is the heap path's equivalence
// property test: with the threshold forced to 1, every single decision of
// every greedy variant must match the plain full-scan scheduler pick for
// pick, event for event, and on the final result — the same contract the
// linear cached path is held to, now exercising rebuilds, same-slate
// rescoring (originals) and slate-compaction deletes (replicas).
func TestHeapArgminPickStreamMatchesFlat(t *testing.T) {
	forceHeapArgmin(t, 1)
	variants := greedyVariants()
	names := make([]string, 0, len(variants))
	for name := range variants {
		names = append(names, name)
	}

	runOnce := func(seed uint64, s *greedySched) (*sim.Result, []sim.Event, [][4]int) {
		rec := &pickRecorder{inner: s}
		cfg := randomPickScenario(t, seed, rec)
		var events []sim.Event
		cfg.OnEvent = func(ev sim.Event) { events = append(events, ev) }
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, s.Name(), err)
		}
		return res, events, rec.log
	}

	f := func(seed uint64, pickV uint8) bool {
		name := names[int(pickV)%len(names)]
		heap := variants[name]()
		flat := variants[name]()
		flat.noCache = true
		resH, evH, picksH := runOnce(seed, heap)
		resF, evF, picksF := runOnce(seed, flat)
		if !reflect.DeepEqual(picksH, picksF) {
			for i := range picksH {
				if i < len(picksF) && picksH[i] != picksF[i] {
					t.Logf("seed %d %s: first divergence at decision %d: heap %v, flat %v",
						seed, name, i, picksH[i], picksF[i])
					break
				}
			}
			return false
		}
		return reflect.DeepEqual(resH, resF) && reflect.DeepEqual(evH, evF)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapArgminSlowCheckOracle runs the full-rescore oracle with the heap
// path forced on: every heap decision is re-derived from a fresh linear
// scan inside Pick, so a rotted continuation anchor panics.
func TestHeapArgminSlowCheckOracle(t *testing.T) {
	forceHeapArgmin(t, 1)
	runner := sim.NewRunner()
	runner.EnableSlowChecks()
	for name, build := range greedyVariants() {
		for seed := uint64(0); seed < 8; seed++ {
			cfg := randomPickScenario(t, seed*17+3, build())
			if _, err := runner.Run(cfg); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestScoreHeapOrder drives the bare tree through the only operations
// pickHeap uses — rebuild, rescoring the minimum (originals phase) and
// dropping it (replica phase) — against a reference linear argmin, over
// random score vectors that deliberately include exact ties (shared values
// drawn from a tiny set), −0 beside +0, +Inf, and NaN with either sign bit
// — the cases scoreLess orders by ID, sentinel-last. Slates run from a
// single entry to ~300, on to the last live entry, so NaN-scored live
// leaves meet dropped ones. After every operation the tree minimum must
// equal the scan minimum over the live entries and the live count must
// match.
func TestScoreHeapOrder(t *testing.T) {
	scorePool := []float64{0, math.Copysign(0, -1), 1, 1, 2.5, 2.5, math.Inf(1), math.NaN(), math.Copysign(math.NaN(), -1)}
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		if seed%3 == 0 {
			n = 100 + r.Intn(200)
		}
		slate := make([]int, n)
		scores := make([]float64, n)
		id := 0
		for k := range slate {
			id += 1 + r.Intn(3) // ascending, gappy worker IDs
			slate[k] = id
			scores[k] = scorePool[r.Intn(len(scorePool))]
		}
		var h scoreHeap
		k := 0
		h.rebuild(slate, func(int) float64 { sc := scores[k]; k++; return sc })

		live := make([]bool, n)
		for k := range live {
			live[k] = true
		}
		check := func(op int) {
			t.Helper()
			want := -1
			for k, q := range slate {
				if live[k] && (want < 0 || scoreLess(scores[k], q, scores[want], slate[want])) {
					want = k
				}
			}
			if got := h.minIndex(); got != want {
				t.Fatalf("seed %d op %d: tree min at slate index %d, reference %d", seed, op, got, want)
			}
			nLive := 0
			for _, l := range live {
				if l {
					nLive++
				}
			}
			if h.live != nLive {
				t.Fatalf("seed %d op %d: live count %d, reference %d", seed, op, h.live, nLive)
			}
		}
		check(-1)
		for op := 0; h.live > 1 && op < 4*n; op++ {
			k := h.minIndex()
			if r.Intn(3) == 0 {
				h.dropMin()
				live[k] = false
			} else {
				scores[k] = scorePool[r.Intn(len(scorePool))]
				h.rescoreMin(scores[k])
			}
			check(op)
		}
	}
}

// TestOrderKeyMatchesScoreLess pins the tree's order to scoreLess: for
// every pair of scores, with equal and with different indices, the
// one-word orderKey with the tree's lower-leaf tie-break must agree with
// scoreLess both ways round. The scores are every pair of signed zeros,
// subnormal and normal extremes, infinities and NaNs (either sign bit, two
// payloads), then 10^5 random bit patterns, each also paired with itself.
// Every score's key, the NaNs' included, must also order below the
// sentinel a dropped leaf holds.
func TestOrderKeyMatchesScoreLess(t *testing.T) {
	keyLess := func(a float64, i int, b float64, j int) bool {
		ka, kb := orderKey(a), orderKey(b)
		return ka < kb || (ka == kb && i < j)
	}
	check := func(a, b float64) {
		t.Helper()
		if orderKey(a) >= losertree.Sentinel {
			t.Fatalf("orderKey(%v [%#x]) = %#x, not below the sentinel", a, math.Float64bits(a), orderKey(a))
		}
		for _, ids := range [][2]int{{0, 0}, {3, 3}, {0, 1}, {1, 0}, {2, 7}, {7, 2}} {
			i, j := ids[0], ids[1]
			if got, want := keyLess(a, i, b, j), scoreLess(a, i, b, j); got != want {
				t.Fatalf("key order of (%v [%#x], %d) < (%v [%#x], %d) = %v, scoreLess says %v",
					a, math.Float64bits(a), i, b, math.Float64bits(b), j, got, want)
			}
		}
	}
	negNaN := math.Copysign(math.NaN(), -1)
	special := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		1, -1, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1),
		math.NaN(), negNaN,
		math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000abc),
	}
	for _, a := range special {
		for _, b := range special {
			check(a, b)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		a, b := math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64())
		check(a, b)
		check(a, a)
	}
}

// BenchmarkGreedyArgmin times one originals-phase scheduling round on each
// argmin path: n picks over a slate of n UP workers, in largep's shape
// (m = n tasks, ncom = n/4, emct*). Each op opens a fresh round on a fresh
// view revision, so the first pick scores the whole slate on both paths
// and the corrected mode's factor steps force the heap's mid-round
// rebuilds as they do in a real round.
func BenchmarkGreedyArgmin(b *testing.B) {
	for _, n := range []int{20, 128, 1000, 10000} {
		for _, path := range []string{"linear", "heap"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, path), func(b *testing.B) {
				if path == "heap" {
					forceHeapArgmin(b, 1)
				} else {
					forceHeapArgmin(b, n+1)
				}
				v, eligible := argminBenchView(n)
				s := NewEMCT(true)
				rs := freshRound(n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					v.Epoch = int64(i + 1)
					for q := range v.ProcEpochs {
						v.ProcEpochs[q] = v.Epoch
					}
					clear(rs.NQ)
					rs.NActive, rs.Picks = 0, 0
					for task := 0; task < n; task++ {
						q := s.Pick(v, eligible, rs, sim.TaskInfo{Task: task})
						if rs.NQ[q] == 0 && !v.Procs[q].Busy() {
							rs.NActive++
						}
						rs.NQ[q]++
						rs.Picks++
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/pick")
			})
		}
	}
}

// argminBenchView builds a change-tracked view of n UP workers with mixed
// speeds, models and pipeline states, and the full ascending slate.
func argminBenchView(n int) (*sim.View, []int) {
	ncom := n / 4
	if ncom < 1 {
		ncom = 1
	}
	models := []*avail.Markov3{reliableModel(), flakyModel()}
	v := &sim.View{
		Params:     params(ncom, 10, 3),
		Procs:      make([]sim.ProcView, n),
		ProcEpochs: make([]int64, n),
	}
	eligible := make([]int, n)
	for q := range v.Procs {
		v.Procs[q] = sim.ProcView{
			ID: q, W: 3 + q%11, State: avail.Up, Model: models[q%2],
			RemProgram: 10 * (q % 3 / 2),
		}
		if q%5 == 0 {
			v.Procs[q].HasComputing, v.Procs[q].ComputingRem = true, 1+q%4
		}
		eligible[q] = q
	}
	v.FillAnalytics()
	return v, eligible
}
