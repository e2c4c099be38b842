// Command perfbench is the repository's benchmark. It runs one named
// workload from a workload seed, checks that the program's outputs are
// correct, and prints its metrics as the last line of standard output:
//
//	perfbench -workload table2-slot -seed 1 -seconds 25 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it runs the
// traced pass instead and prints the per-layer metrics. perfbench/run.sh
// builds it and volaserved from the checkout and runs it; README.md in this
// directory describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: whether every output check passed, how many
// operations were attempted and failed, and the metrics by name.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed before the result
}

func (r *report) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a failed output check.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.note("CHECK FAILED: "+format, args...)
	}
}

// env is what every workload receives.
type env struct {
	workload   string
	seed       uint64
	seconds    int
	volaserved string // path to the volaserved binary
	scratch    string // directory for data dirs and span files
	k          *kernel
}

var workloads = map[string]func(env, bool) (*report, error){
	"table2-slot":  sweepWorkload,
	"table2-event": sweepWorkload,
	"largep-event": sweepWorkload,
	"served-mixed": servedWorkload,
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
	volaserved := flag.String("volaserved", "", "path to the volaserved binary (served-mixed)")
	scratch := flag.String("scratch", ".bench_build/run", "directory for server data dirs and span files")
	setupPass := flag.Bool("setup-pass", false, "run one set-up pass of a sweep workload and exit (what setup_s times)")
	flag.Parse()

	if *setupPass {
		if err := specFor(*name, *seed).setupOnce(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up pass:", err)
			os.Exit(1)
		}
		return
	}

	run, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	e := env{workload: *name, seed: *seed, seconds: *seconds, volaserved: *volaserved, scratch: *scratch, k: newKernel()}
	if err := os.MkdirAll(e.scratch, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	kStart := e.k.median(21)
	rep, err := run(e, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	kEnd := e.k.median(21)
	rep.note("calibration kernel: %.3f ms at start, %.3f ms at end (reference %.3f ms)",
		ms(kStart), ms(kEnd), ms(kernelRef))
	if *trace == 1 {
		rep.set("calib.kernel_start_ms", ms(kStart), "ms")
		rep.set("calib.kernel_end_ms", ms(kEnd), "ms")
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// peakRSSMB reads a process's peak resident set (VmHWM, in MiB) from /proc;
// proc is a PID or "self". getrusage's ru_maxrss would not do: Linux keeps
// it across fork and exec, so it reports the launcher's peak when that is
// larger.
func peakRSSMB(proc string) (float64, error) {
	data, err := os.ReadFile("/proc/" + proc + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + proc + "/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
