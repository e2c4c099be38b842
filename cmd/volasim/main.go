// Command volasim runs a single simulation of an iterative master-worker
// application on a volatile platform and reports the makespan and resource
// statistics. With -verbose it prints the full event timeline.
//
// Examples:
//
//	volasim -n 20 -ncom 10 -wmin 3 -heuristic 'emct*'
//	volasim -n 5 -ncom 5 -wmin 8 -heuristic ud -trials 5
//	volasim -n 5 -ncom 5 -wmin 1 -heuristic mct -verbose
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	volatile "repro"
)

// validateScenario rejects flags NewScenario cannot build a scenario from:
// -n, -ncom and -wmin must be positive (Cell.Validate, the check RunSweep
// applies to every sweep cell), and -p, -iterations and -commscale must be
// >= 0, with 0 meaning the paper default (ScenarioOptions.Validate).
func validateScenario(cell volatile.Cell, opt volatile.ScenarioOptions) error {
	if err := cell.Validate(); err != nil {
		return err
	}
	return opt.Validate()
}

// validateRun rejects run flags no run can honor: -trials must be >= 1,
// and -horizon, the recorded length -gantt fits Markov models to, >= 2.
func validateRun(trials, horizon int) error {
	if trials < 1 {
		return fmt.Errorf("-trials %d: must be >= 1", trials)
	}
	if horizon < 2 {
		return fmt.Errorf("-horizon %d: must be >= 2 to fit models", horizon)
	}
	return nil
}

func main() {
	var (
		n         = flag.Int("n", 20, "tasks per iteration")
		ncom      = flag.Int("ncom", 10, "max simultaneous master transfers")
		wmin      = flag.Int("wmin", 3, "minimum task duration (speeds in [wmin, 10*wmin])")
		heuristic = flag.String("heuristic", "emct*", "scheduling heuristic (see -list)")
		seed      = flag.Uint64("seed", 42, "scenario seed")
		trialSeed = flag.Uint64("trial", 1, "first trial seed")
		trials    = flag.Int("trials", 1, "number of trials to run")
		iters     = flag.Int("iterations", 10, "iterations per run")
		procs     = flag.Int("p", 20, "number of processors")
		commScale = flag.Int("commscale", 1, "communication scale (5/10 = contention-prone)")
		verbose   = flag.Bool("verbose", false, "print the event timeline")
		gantt     = flag.Bool("gantt", false, "render a per-worker activity timeline")
		horizon   = flag.Int("horizon", 50000, "recorded availability horizon for -gantt")
		describe  = flag.Bool("describe", false, "print the scenario before running")
		list      = flag.Bool("list", false, "list available heuristics and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(volatile.Heuristics(), "\n"))
		return
	}

	cell := volatile.Cell{Tasks: *n, Ncom: *ncom, Wmin: *wmin}
	opt := volatile.ScenarioOptions{Processors: *procs, Iterations: *iters, CommScale: *commScale}
	err := validateRun(*trials, *horizon)
	if err == nil {
		err = validateScenario(cell, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "volasim:", err)
		os.Exit(2)
	}
	scn := volatile.NewScenario(*seed, cell, opt)
	if *describe {
		fmt.Print(scn.Describe())
	}

	if *gantt {
		if err := ganttRun(scn, *heuristic, *trialSeed, *horizon); err != nil {
			fmt.Fprintln(os.Stderr, "volasim:", err)
			os.Exit(1)
		}
		return
	}

	for tr := 0; tr < *trials; tr++ {
		ts := *trialSeed + uint64(tr)
		var onEvent func(volatile.Event)
		if *verbose {
			onEvent = func(ev volatile.Event) {
				fmt.Printf("slot %6d iter %2d %-15s", ev.Slot, ev.Iteration, ev.Kind)
				if ev.Worker >= 0 {
					fmt.Printf(" worker=%d", ev.Worker)
				}
				if ev.Task >= 0 {
					fmt.Printf(" task=%d copy=%d", ev.Task, ev.Replica)
				}
				fmt.Println()
			}
		}
		res, err := scn.RunWithHooks(*heuristic, ts, nil, onEvent)
		if err != nil {
			fmt.Fprintln(os.Stderr, "volasim:", err)
			os.Exit(1)
		}
		status := "completed"
		if !res.Completed {
			status = "CENSORED"
		}
		fmt.Printf("trial %d (%s): %s in %d slots\n", tr, *heuristic, status, res.Makespan)
		fmt.Printf("  iteration ends: %v\n", res.IterationEnds)
		s := res.Stats
		fmt.Printf("  transfers: %d slot-units (%d program), peak %d parallel\n",
			s.ChannelSlots, s.ProgramSlots, s.PeakTransfers)
		fmt.Printf("  compute: %d slots (%d wasted), crashes: %d, replicas: %d\n",
			s.ComputeSlots, s.WastedComputeSlots, s.Crashes, s.ReplicasStarted)
	}
}
