// Tracedriven: challenging the Markov assumption (the paper's future-work
// direction, Section 8).
//
// The informed heuristics derive their scores from a 3-state Markov model of
// each processor. Real desktop-grid availability is not Markovian: measured
// UP/RECLAIMED/DOWN sojourns follow heavy-tailed distributions. This example
// synthesizes Failure-Trace-Archive-style availability (Weibull, Pareto and
// log-normal sojourns), fits Markov models to the recorded traces — exactly
// what a master estimating behaviour from history would do — and replays the
// heuristics on the traces via a traced scenario (Scenario.Traced).
//
// The qualitative outcome mirrors the paper's expectation: the informed
// heuristics still beat random selection, but their edge over plain MCT
// narrows when the memoryless model misdescribes the platform.
package main

import (
	"fmt"
	"log"
	"os"

	volatile "repro"
	"repro/internal/avail"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/trace"
)

func main() {
	const (
		processors = 12
		horizon    = 60_000 // slots of recorded trace per processor
		trials     = 8
	)
	heuristics := []string{"mct", "emct", "ud", "lw", "random", "random2w"}

	for _, style := range []trace.FTAStyle{trace.Weibull, trace.Pareto, trace.LogNormal} {
		fmt.Printf("=== %s sojourns (synthetic FTA-style availability) ===\n", style)

		totals := map[string]float64{}
		wins := map[string]int{}
		for trial := 0; trial < trials; trial++ {
			r := rng.New(1000*uint64(style) + uint64(trial))

			// Record one trace per processor.
			vectors := make([]string, processors)
			for q := 0; q < processors; q++ {
				proc, err := trace.NewSynthProcess(r.Split(), trace.SynthOptions{Style: style})
				if err != nil {
					log.Fatal(err)
				}
				vectors[q] = avail.Record(proc, horizon).String()
			}

			// The scenario provides speeds and run parameters; Traced
			// replaces its availability with the recorded vectors and fits
			// per-processor Markov models from them.
			scn, err := volatile.NewScenario(500+uint64(trial),
				volatile.Cell{Tasks: 12, Ncom: 6, Wmin: 4},
				volatile.ScenarioOptions{Processors: processors}).Traced(vectors)
			if err != nil {
				log.Fatal(err)
			}

			makespans := map[string]int{}
			best := 0
			for _, h := range heuristics {
				res, err := scn.Run(h, uint64(trial))
				if err != nil {
					log.Fatal(err)
				}
				if !res.Completed {
					fmt.Fprintf(os.Stderr, "warning: %s censored on trial %d\n", h, trial)
				}
				makespans[h] = res.Makespan
				if best == 0 || res.Makespan < best {
					best = res.Makespan
				}
			}
			for h, ms := range makespans {
				totals[h] += 100 * float64(ms-best) / float64(best)
				if ms == best {
					wins[h]++
				}
			}
		}

		tb := report.NewTable("heuristic", "avg dfb (%)", "wins")
		for _, h := range heuristics {
			tb.AddRow(h, fmt.Sprintf("%.2f", totals[h]/trials), fmt.Sprintf("%d", wins[h]))
		}
		fmt.Print(tb.String())
		fmt.Println()
	}

	fmt.Println("Markov models are fitted from each trace (transition counting with")
	fmt.Println("smoothing); the heuristics consume those beliefs while the actual")
	fmt.Println("availability follows the heavy-tailed generators.")
}
