// Command volabench regenerates the paper's experimental artifacts:
//
//	volabench -exp table2              Table 2 (dfb + wins, all 17 heuristics)
//	volabench -exp figure2             Figure 2 (dfb vs wmin, ASCII plot + CSV)
//	volabench -exp table3x5            Table 3 left (communication ×5)
//	volabench -exp table3x10           Table 3 right (communication ×10)
//	volabench -exp ablation            replication & correction ablations
//	volabench -exp emctgain            EMCT-vs-MCT makespan ratio + Wilcoxon
//	volabench -exp emctgain-norepl     the same with replication disabled
//	volabench -exp tracesweep          Table 2 layout on synthetic FTA-style
//	                                   traces (-trace-style, -trace-len), or on
//	                                   recorded trace files (-trace-file, repeatable)
//	volabench -exp dfrs                batch-vs-fractional comparison (DFRS-style):
//	                                   FCFS + EASY batch baselines head-to-head
//	                                   with the paper's heuristics, per-cell columns
//	volabench -exp largep              volunteer-grid regime (-p sets the platform
//	                                   size, default 1000): full-width rounds over
//	                                   the informed greedy pairs; pair with
//	                                   -mode event at P >= 10k
//	volabench -exp moldable            moldable iterations: -alloc picks the
//	                                   per-iteration allocation policy (fixed|
//	                                   maximum-iters|split-into[:k]|reshape[:s],
//	                                   default maximum-iters) deciding each
//	                                   iteration's task count at the barrier
//	volabench -print-grid              the Table 1 parameter grid
//
// -scenarios and -trials scale the sweep; the paper uses 247 scenarios ×
// 10 trials per cell for Table 2 / Figure 2 and 100 × 10 for Table 3.
//
// -p overrides the platform size (processors) for the sweep experiments
// (table2, figure2, table3*, largep); 0 keeps each experiment's default.
//
// -mode selects the engine time base: slot (per-slot stepping, the default)
// or event (sojourn-sampled availability with quiet-slot skipping — same
// statistics, faster on quiet platforms).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	volatile "repro"
	"repro/internal/atomicio"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/sweepreq"
)

func main() {
	var (
		exp        = flag.String("exp", "table2", "experiment: table2|figure2|table3x5|table3x10|ablation|emctgain|emctgain-norepl|tracesweep|dfrs|largep|moldable")
		mode       = flag.String("mode", "slot", "engine time base: slot|event (event advances to the next availability transition and skips quiet slots)")
		scenarios  = flag.Int("scenarios", 6, "scenarios per grid cell")
		trials     = flag.Int("trials", 4, "trials per scenario")
		procs      = flag.Int("p", 0, "platform size override for sweep experiments (0 = experiment default; largep defaults to 1000)")
		seed       = flag.Uint64("seed", 42, "sweep seed")
		workers    = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		csvPath    = flag.String("csv", "", "also write results to this CSV file")
		grid       = flag.Bool("print-grid", false, "print the Table 1 grid and exit")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		traceStyle = flag.String("trace-style", "weibull", "tracesweep sojourn family: weibull|pareto|lognormal")
		traceLen   = flag.Int("trace-len", 1000, "tracesweep vector length in slots")
		alloc      = flag.String("alloc", "", "moldable: allocation policy spec ("+strings.Join(volatile.AllocPolicySpecs(), "|")+"; default maximum-iters)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
		ckPath     = flag.String("checkpoint", "", "persist sweep progress to this file at chunk boundaries (crash-safe; enables SIGINT/SIGTERM graceful stop)")
		ckEvery    = flag.Int("checkpoint-every", volatile.DefaultCheckpointEvery, "chunks between checkpoint writes")
		resume     = flag.Bool("resume", false, "resume the sweep from -checkpoint (missing file starts from scratch)")
		crashAfter = flag.Int("crash-after", 0, "fault injection: kill the sweep committer after this many committed chunks (0 = off; requires -checkpoint)")
		digest     = flag.Bool("digest", false, "print the result digest (sha256 of the full-precision output) after the sweep")
		contOnErr  = flag.Bool("continue-on-error", false, "drop instances whose run fails instead of aborting the sweep")
	)
	var traceFiles multiFlag
	flag.Var(&traceFiles, "trace-file", "tracesweep: replay this recorded trace file (repeatable; format of trace.Set.Write / cmd/volatrace)")
	flag.Parse()

	if *grid {
		printGrid()
		return
	}

	// Validate everything before any profile starts, so a typo exits
	// cleanly instead of leaving a truncated profile file behind. The
	// request is the same shape cmd/volaserved accepts over JSON; the two
	// surfaces share validation, construction and the config digest.
	req := sweepreq.Request{
		Exp: *exp, Mode: *mode, Scenarios: *scenarios, Trials: *trials,
		Procs: *procs, Seed: *seed, Workers: *workers,
		TraceStyle: *traceStyle, TraceLen: *traceLen, TraceFiles: traceFiles,
		Alloc: *alloc, ContinueOnError: *contOnErr,
	}
	if err := req.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "volabench:", err)
		os.Exit(2)
	}
	dur := durabilityArgs{
		checkpoint: *ckPath, every: *ckEvery, resume: *resume,
		crashAfter: *crashAfter, digest: *digest, continueOnError: *contOnErr,
	}
	if err := validateDurability(*exp, dur); err != nil {
		fmt.Fprintln(os.Stderr, "volabench:", err)
		os.Exit(2)
	}
	simMode, err := volatile.ParseMode(*mode)
	fatalIf(err)

	// With a checkpoint configured, SIGINT/SIGTERM stop the sweep
	// gracefully: in-flight chunks commit, a final checkpoint is written,
	// and the exit message names the resume command. A second signal kills
	// immediately (default disposition is restored after the first).
	var stopCh chan struct{}
	if dur.checkpoint != "" {
		stopCh = make(chan struct{})
		sigCh := make(chan os.Signal, 1)
		signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sigCh
			signal.Reset(os.Interrupt, syscall.SIGTERM)
			fmt.Fprintln(os.Stderr, "\nvolabench: interrupted — committing in-flight chunks and checkpointing (signal again to kill)")
			close(stopCh)
		}()
	}
	dur.stop = stopCh

	// Profiles cover the experiment itself (not flag parsing or the grid
	// printer). On error exits the CPU profile is not flushed; profile
	// healthy runs.
	var cpuProfF *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fatalIf(err)
		fatalIf(pprof.StartCPUProfile(f))
		cpuProfF = f
	}

	progress := func(done, total int) {
		if *quiet {
			return
		}
		if done%50 == 0 || done == total {
			fmt.Fprintf(os.Stderr, "\r%d/%d instances", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	start := time.Now()
	switch {
	case sweepreq.IsSweep(*exp):
		// Every sweep-family experiment goes through the shared request
		// layer: Build validates, constructs the config and resolves its
		// content digest exactly as the sweep service does.
		built, err := sweepreq.Build(req)
		if err != nil {
			fmt.Fprintln(os.Stderr, "volabench:", err)
			os.Exit(2)
		}
		res, err := built.Run(sweepreq.RunOpts{
			Progress:   progress,
			Checkpoint: dur.checkpointConfig(),
			Stop:       dur.stop,
			Faults:     dur.faultPlan(),
		})
		handleSweepError(err)
		elapsed := time.Since(start).Round(time.Second)
		switch *exp {
		case "table2":
			fmt.Printf("Table 2 — results over all problem instances (%d instances, %d censored runs, %v)\n\n",
				res.Instances, res.Censored, elapsed)
			printRows(res.Overall, *csvPath)
		case "figure2":
			fmt.Printf("Figure 2 — averaged dfb vs wmin (%d instances, %v)\n\n",
				res.Instances, elapsed)
			printFigure2(res, built.Heuristics, *csvPath)
		case "table3x5", "table3x10":
			scale := 5
			if *exp == "table3x10" {
				scale = 10
			}
			fmt.Printf("Table 3 — contention-prone, communication times ×%d (%d instances, %v)\n\n",
				scale, res.Instances, elapsed)
			printRows(res.Overall, *csvPath)
		case "tracesweep":
			if len(traceFiles) > 0 {
				fmt.Printf("Trace-driven Table 2 — %d recorded trace file(s) (%d instances, %d censored runs, %v)\n\n",
					len(traceFiles), res.Instances, res.Censored, elapsed)
			} else {
				fmt.Printf("Trace-driven Table 2 — synthetic %s traces, %d slots each (%d instances, %d censored runs, %v)\n\n",
					*traceStyle, *traceLen, res.Instances, res.Censored, elapsed)
			}
			printRows(res.Overall, *csvPath)
		case "dfrs":
			fmt.Printf("DFRS comparison — batch baselines vs fractional heuristics (%d instances, %d censored runs, %v)\n\n",
				res.Instances, res.Censored, elapsed)
			printRows(res.Overall, *csvPath)
			fmt.Println()
			printCompareCells(res)
		case "largep":
			fmt.Printf("Volunteer grid — P = %d processors, n = P tasks (%d instances, %d censored runs, %v)\n\n",
				req.WithDefaults().Procs, res.Instances, res.Censored, elapsed)
			printRows(res.Overall, *csvPath)
		case "moldable":
			fmt.Printf("Moldable iterations — allocation policy %s sizes each iteration at the barrier (%d instances, %d censored runs, %v)\n\n",
				req.WithDefaults().Alloc, res.Instances, res.Censored, elapsed)
			printRows(res.Overall, *csvPath)
		}
		reportSweepHealth(res, dur)

	case *exp == "ablation":
		runAblation(simMode, *scenarios, *trials, *seed, *workers, progress)

	case *exp == "emctgain":
		runEMCTGain(simMode, *scenarios, *trials, *seed, false)

	case *exp == "emctgain-norepl":
		runEMCTGain(simMode, *scenarios, *trials, *seed, true)

	default:
		fmt.Fprintf(os.Stderr, "volabench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}

	if cpuProfF != nil {
		pprof.StopCPUProfile()
		fatalIf(cpuProfF.Close())
		fmt.Fprintf(os.Stderr, "wrote %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		fatalIf(err)
		runtime.GC() // materialize the live-heap picture
		fatalIf(pprof.WriteHeapProfile(f))
		fatalIf(f.Close())
		fmt.Fprintf(os.Stderr, "wrote %s\n", *memprofile)
	}
}

func mustSweep(cfg volatile.SweepConfig) *volatile.SweepResult {
	res, err := volatile.RunSweep(cfg)
	handleSweepError(err)
	return res
}

// handleSweepError exits on a sweep error. A graceful interrupt
// (*volatile.InterruptedError) gets the conventional 130 and the exact
// command that resumes the sweep; everything else is a plain failure.
func handleSweepError(err error) {
	if err == nil {
		return
	}
	var ie *volatile.InterruptedError
	if errors.As(err, &ie) {
		code, msg := interruptOutcome(ie, resumeCommand(os.Args))
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(code)
	}
	fmt.Fprintln(os.Stderr, "volabench:", err)
	os.Exit(1)
}

// reportSweepHealth surfaces the robustness bookkeeping — dropped
// instances, failed checkpoint writes — and the result digest when asked.
func reportSweepHealth(res *volatile.SweepResult, dur durabilityArgs) {
	if res.FailedInstances > 0 {
		fmt.Fprintf(os.Stderr, "volabench: %d instance(s) dropped after a failed run:\n", res.FailedInstances)
		for _, e := range res.InstanceErrors {
			fmt.Fprintf(os.Stderr, "  %s\n", e)
		}
	}
	for _, w := range res.Warnings {
		fmt.Fprintf(os.Stderr, "volabench: warning: %s\n", w)
	}
	if dur.digest {
		fmt.Printf("digest %s\n", res.Digest())
	}
}

func printGrid() {
	tb := report.NewTable("parameter", "values")
	tb.AddRow("p", "20")
	tb.AddRow("n", "5, 10, 20, 40")
	tb.AddRow("ncom", "5, 10, 20")
	tb.AddRow("wmin", "1..10")
	fmt.Println("Table 1 — parameter values for the Markov experiments")
	fmt.Print(tb.String())
	fmt.Printf("\n%d grid cells total\n", len(volatile.PaperGrid()))
}

func printRows(rows []volatile.TableRow, csvPath string) {
	tb := report.NewTable("Algorithm", "Average dfb", "#wins")
	var csv [][]string
	for _, r := range rows {
		tb.AddRow(r.Name, fmt.Sprintf("%.2f", r.AvgDFB), fmt.Sprintf("%d", r.Wins))
		csv = append(csv, []string{r.Name, fmt.Sprintf("%.4f", r.AvgDFB), fmt.Sprintf("%d", r.Wins)})
	}
	fmt.Print(tb.String())
	if csvPath != "" {
		writeCSV(csvPath, []string{"algorithm", "avg_dfb", "wins"}, csv)
	}
}

func printFigure2(res *volatile.SweepResult, heuristics []string, csvPath string) {
	wmins, series := volatile.Figure2Series(res, heuristics)
	labels := make([]string, len(wmins))
	for i, w := range wmins {
		labels[i] = fmt.Sprintf("%d", w)
	}
	// Figure2Series omits heuristics with no data at all; plot only the rest.
	names := make([]string, 0, len(heuristics))
	for _, h := range heuristics {
		if _, ok := series[h]; ok {
			names = append(names, h)
		}
	}
	sort.Strings(names)
	var plotSeries []report.Series
	for _, h := range names {
		plotSeries = append(plotSeries, report.Series{Name: h, Y: series[h]})
	}
	if err := report.AsciiPlot(os.Stdout, "average dfb vs wmin", labels, plotSeries, 18); err != nil {
		fmt.Fprintln(os.Stderr, "volabench:", err)
		os.Exit(1)
	}
	// Numeric table below the plot.
	headers := append([]string{"wmin"}, names...)
	tb := report.NewTable(headers...)
	var csv [][]string
	for i, w := range wmins {
		row := []string{fmt.Sprintf("%d", w)}
		for _, h := range names {
			row = append(row, fmt.Sprintf("%.2f", series[h][i]))
		}
		tb.AddRow(row...)
		csv = append(csv, row)
	}
	fmt.Println()
	fmt.Print(tb.String())
	if csvPath != "" {
		writeCSV(csvPath, headers, csv)
	}
}

// runAblation quantifies two design choices the paper calls out: task
// replication (Section 6.1) and the contention-correcting factor
// (Section 6.3.1), by re-running a mid-grid cell with each toggled.
func runAblation(mode volatile.Mode, scenarios, trials int, seed uint64, workers int, progress func(int, int)) {
	cell := volatile.Cell{Tasks: 5, Ncom: 5, Wmin: 5} // few tasks: replication matters
	fmt.Println("Ablation A — replication on/off (n=5, ncom=5, wmin=5, emct)")
	for _, repl := range []bool{true, false} {
		opt := volatile.ScenarioOptions{}
		if !repl {
			opt.MaxReplicas = -1
		}
		res := mustSweep(volatile.SweepConfig{
			Cells: []volatile.Cell{cell}, Heuristics: []string{"emct", "mct"},
			Scenarios: scenarios * 4, Trials: trials, Seed: seed, Mode: mode,
			Options: opt, Workers: workers, Progress: progress,
		})
		mean := meanMakespanProxy(res)
		fmt.Printf("  replication=%-5v avg dfb spread %.2f (emct vs mct over %d instances)\n",
			repl, mean, res.Instances)
		printRows(res.Overall, "")
		fmt.Println()
	}

	fmt.Println("Ablation B — contention correction under communication ×10 (table3 cell)")
	res := mustSweep(volatile.SweepConfig{
		Cells:      []volatile.Cell{volatile.ContentionCell()},
		Heuristics: []string{"emct", "emct*", "mct", "mct*", "ud", "ud*", "lw", "lw*"},
		Scenarios:  scenarios * 4, Trials: trials, Seed: seed, Mode: mode,
		Options: volatile.ScenarioOptions{CommScale: 10},
		Workers: workers, Progress: progress,
	})
	printRows(res.Overall, "")
}

// runEMCTGain reproduces the paper's headline "EMCT makespans are 10%
// smaller than MCT's": it runs both heuristics on identical instances across
// the grid, reports the mean makespan ratio, and tests significance with the
// Wilcoxon signed-rank test. Both heuristics of a trial run on one Runner,
// so they replay one recorded world.
func runEMCTGain(mode volatile.Mode, scenarios, trials int, seed uint64, noReplication bool) {
	rn := volatile.NewRunner()
	rn.SetMode(mode)
	var emct, mct []float64
	cells := volatile.PaperGrid()
	opt := volatile.ScenarioOptions{}
	if noReplication {
		opt.MaxReplicas = -1
	}
	for ci, cell := range cells {
		for s := 0; s < scenarios; s++ {
			scn := volatile.NewScenario(seed+uint64(ci*1000+s), cell, opt)
			for tr := 0; tr < trials; tr++ {
				a, err := scn.RunWith(rn, "emct", uint64(tr))
				fatalIf(err)
				b, err := scn.RunWith(rn, "mct", uint64(tr))
				fatalIf(err)
				if a.Completed && b.Completed {
					emct = append(emct, float64(a.Makespan))
					mct = append(mct, float64(b.Makespan))
				}
			}
		}
	}
	var ratioSum float64
	for i := range emct {
		ratioSum += mct[i] / emct[i]
	}
	fmt.Printf("EMCT vs MCT over %d paired instances (full grid, replication disabled=%v):\n",
		len(emct), noReplication)
	fmt.Printf("  mean makespan ratio mct/emct = %.3f (paper reports ~1.10)\n",
		ratioSum/float64(len(emct)))
	verdict, err := stats.PairedComparison("emct", "mct", emct, mct)
	fatalIf(err)
	fmt.Println(" ", verdict)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// printCompareCells renders the per-cell batch-vs-fractional columns: each
// family's best average dfb (against the per-instance best over both
// families) and the gap batch concedes.
func printCompareCells(res *volatile.SweepResult) {
	rows := volatile.CompareCells(res)
	tb := report.NewTable("cell", "best fractional", "dfb", "best batch", "dfb", "batch gap")
	for _, r := range rows {
		tb.AddRow(r.Cell.String(),
			r.BestFractional, fmt.Sprintf("%.2f", r.FractionalDFB),
			r.BestBatch, fmt.Sprintf("%.2f", r.BatchDFB),
			fmt.Sprintf("%+.2f", r.Gap))
	}
	fmt.Println("Per-cell degradation-from-best, batch vs fractional:")
	fmt.Print(tb.String())
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "volabench:", err)
		os.Exit(1)
	}
}

// meanMakespanProxy summarizes a two-heuristic sweep as the dfb gap.
func meanMakespanProxy(res *volatile.SweepResult) float64 {
	if len(res.Overall) < 2 {
		return 0
	}
	return res.Overall[len(res.Overall)-1].AvgDFB - res.Overall[0].AvgDFB
}

func writeCSV(path string, headers []string, rows [][]string) {
	// Atomic write: an interrupted run leaves either the previous CSV or
	// the complete new one, never a torn file.
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		return report.WriteCSV(w, headers, rows)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "volabench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
