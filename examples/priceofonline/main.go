// Priceofonline: how far are the on-line heuristics from a certified
// optimum?
//
// The paper proves the off-line problem NP-hard, but its relaxation to
// unbounded master bandwidth is solvable exactly (Proposition 2: greedy MCT
// is optimal when ncom = ∞). Combining that with the DOWN-splitting argument
// of Section 4 yields a *certified lower bound* on any schedule's makespan
// for a fixed availability realization:
//
//	bound = MCT∞( SplitDowns(recorded vectors) )  ≤  OPT  ≤  online makespan.
//
// This example records availability realizations, replays the on-line
// heuristics on them (single iteration), and reports each heuristic's
// multiplicative gap to the bound — the combined price of on-line decision
// making and of the bandwidth constraint.
package main

import (
	"fmt"
	"log"

	volatile "repro"
	"repro/internal/avail"
	"repro/internal/offline"
	"repro/internal/report"
	"repro/internal/rng"
)

func main() {
	const (
		processors = 10
		horizon    = 20000
		trials     = 25
	)
	heuristics := []string{"emct*", "emct", "mct", "ud", "lw", "random"}

	gaps := map[string][]float64{}
	master := rng.New(31)
	used := 0
	for trial := 0; trial < trials; trial++ {
		scn := volatile.NewScenario(master.Uint64(),
			volatile.Cell{Tasks: 8, Ncom: 3, Wmin: 2},
			volatile.ScenarioOptions{Processors: processors, Iterations: 1})

		// One fixed availability realization for this trial.
		vecRng := rng.New(master.Uint64())
		vectors := make([]avail.Vector, processors)
		specs := make([]string, processors)
		speeds := make([]int, processors)
		for i := 0; i < processors; i++ {
			stream := vecRng.Split()
			// Use the scenario's own per-processor models to draw the truth.
			vectors[i] = avail.Record(
				modelProcess(scn, i, stream), horizon)
			specs[i] = vectors[i].String()
			speeds[i] = speedOf(scn, i)
		}

		prm := scn.Params()
		in, err := offline.SplitDowns(vectors, speeds, prm.Tprog, prm.Tdata,
			offline.NoContention, prm.M)
		if err != nil {
			log.Fatal(err)
		}
		_, bound, err := offline.MCTNoContention(in)
		if err != nil {
			log.Fatal(err)
		}
		if bound <= 0 {
			continue // realization too hostile even for the relaxed optimum
		}
		used++
		traced, err := scn.Traced(specs)
		if err != nil {
			log.Fatal(err)
		}
		for _, h := range heuristics {
			res, err := traced.Run(h, uint64(trial))
			if err != nil {
				log.Fatal(err)
			}
			if !res.Completed {
				continue
			}
			gaps[h] = append(gaps[h], float64(res.Makespan)/float64(bound))
		}
	}

	fmt.Printf("price of on-line scheduling: %d realizations, 8 tasks, ncom=3\n", used)
	fmt.Println("gap = online makespan / certified lower bound (MCT∞ on split vectors)")
	fmt.Println()
	tb := report.NewTable("heuristic", "mean gap", "min", "max", "runs")
	for _, h := range heuristics {
		g := gaps[h]
		if len(g) == 0 {
			continue
		}
		min, max := g[0], g[0]
		var sum float64
		for _, v := range g {
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		tb.AddRow(h, fmt.Sprintf("%.2f×", sum/float64(len(g))),
			fmt.Sprintf("%.2f×", min), fmt.Sprintf("%.2f×", max),
			fmt.Sprintf("%d", len(g)))
	}
	fmt.Print(tb.String())
	fmt.Println("\nthe bound relaxes BOTH clairvoyance and the bandwidth cap, so even an")
	fmt.Println("optimal on-line scheduler could not reach 1.00×; tighter gaps still")
	fmt.Println("separate the informed heuristics from random selection.")
}

// modelProcess draws the true availability trajectory of processor i from
// the scenario's Markov model.
func modelProcess(scn *volatile.Scenario, i int, r *rng.PCG) avail.Process {
	return scn.ProcessorModel(i).NewProcess(r, avail.Up)
}

// speedOf reads processor i's speed.
func speedOf(scn *volatile.Scenario, i int) int {
	return scn.ProcessorSpeed(i)
}
