package sim_test

import (
	"fmt"
	"testing"

	"repro/internal/avail"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

// largePActive is the size of the cycling worker pool in the large-platform
// benchmark. It stays fixed while P grows, so the number of availability
// transitions per run — the "changes" the engine is supposed to scale with —
// is the same at P = 1k and P = 100k. It is also comfortably past the
// greedy family's heap-argmin threshold, so the volunteer-grid pick path is
// the one being measured.
const largePActive = 256

// BenchmarkLargePlatform pins the volunteer-grid scaling contract: per-slot
// cost tracks the number of availability changes, not the platform size P.
// A fixed pool of largePActive cycling workers does all the computing while
// the remaining P-largePActive workers are permanently DOWN — a one-entry
// vector trajectory whose first transition holds Forever, so the event
// queue primes them once at slot 0 and never revisits them. Growing P from
// 1k to 100k therefore adds only per-run setup (trajectory priming,
// pooled-buffer zeroing), amortized across the run's slots: event-mode
// ns/slot must stay in the same band across P, which is the measured
// acceptance criterion for the O(changes) engine work (quiet-skip checks,
// dirty-set view rebuilds, holder-list cancels). The slot-mode rows run
// the same platform on the slot clock: it still draws one sample per slot
// for each cycling Markov worker, but reads the DOWN pool's vectors run by
// run through the same transition heap, so its ns/slot also tracks the
// changes rather than P.
//
// CI's bench-smoke job records the P=1k pair as the regression smoke point;
// the full matrix is an EXPERIMENTS.md run.
func BenchmarkLargePlatform(b *testing.B) {
	for _, p := range []int{1_000, 10_000, 100_000} {
		for _, mode := range []sim.Mode{sim.ModeSlot, sim.ModeEvent} {
			b.Run(fmt.Sprintf("p=%dk/%s", p/1000, mode), func(b *testing.B) {
				benchLargePlatform(b, p, mode)
			})
		}
	}
}

func benchLargePlatform(b *testing.B, p int, mode sim.Mode) {
	// The active pool cycles with ~10-slot UP sojourns, so transitions and
	// recoveries keep arriving for the whole run.
	active := avail.MustMarkov3([3][3]float64{
		{0.90, 0.05, 0.05},
		{0.30, 0.60, 0.10},
		{0.30, 0.10, 0.60},
	})
	pl := platform.Homogeneous(p, 3, active)
	prm := platform.Params{
		M: 32, Iterations: 4, Ncom: 16, Tprog: 10, Tdata: 2,
		MaxReplicas: 2, MaxSlots: 20_000,
	}
	dead := avail.Vector{avail.Down}
	procs := make([]avail.Process, p)
	actives := make([]*avail.Markov3Process, largePActive)
	for i := range procs {
		if i < largePActive {
			actives[i] = active.NewProcess(rng.New(uint64(i)), avail.Up)
			procs[i] = actives[i]
		} else {
			procs[i] = avail.NewVectorProcess(dead)
		}
	}
	runner := sim.NewRunner()
	b.ReportAllocs()
	totalSlots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rewinding the trajectory pool is benchmark scaffolding (a real
		// sweep draws fresh processes per trial), so it runs off the clock.
		b.StopTimer()
		r := rng.New(uint64(i))
		for _, ap := range actives {
			ap.Reset(active, r.Split(), avail.Up)
		}
		for j := largePActive; j < p; j++ {
			procs[j].(*avail.VectorProcess).Reset(dead)
		}
		sched, _ := core.New("emct*", nil)
		b.StartTimer()
		res, err := runner.Run(sim.Config{Platform: pl, Params: prm, Procs: procs, Scheduler: sched, Mode: mode})
		if err != nil {
			b.Fatal(err)
		}
		totalSlots += res.Makespan
	}
	b.StopTimer()
	if totalSlots > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(totalSlots), "ns/slot")
		b.ReportMetric(float64(totalSlots)/float64(b.N), "slots/run")
	}
}
