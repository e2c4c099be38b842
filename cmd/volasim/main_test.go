package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	volatile "repro"
)

// TestMain lets the tests run this binary as volasim itself: with
// VOLASIM_MAIN set, the process runs main on its command line instead of
// the tests.
func TestMain(m *testing.M) {
	if os.Getenv("VOLASIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// badFlags lists flag settings no scenario or run can be built from, with
// the message each must be rejected with.
var badFlags = []struct {
	args []string
	want string
}{
	{[]string{"-wmin", "0"}, "volasim: volatile: cell n=20 ncom=10 wmin=0: Tasks, Ncom and Wmin must be positive"},
	{[]string{"-wmin", "-2"}, "volasim: volatile: cell n=20 ncom=10 wmin=-2: Tasks, Ncom and Wmin must be positive"},
	{[]string{"-n", "0"}, "volasim: volatile: cell n=0 ncom=10 wmin=3: Tasks, Ncom and Wmin must be positive"},
	{[]string{"-ncom", "-1"}, "volasim: volatile: cell n=20 ncom=-1 wmin=3: Tasks, Ncom and Wmin must be positive"},
	{[]string{"-p", "-5"}, "volasim: volatile: Processors -5: must be >= 0 (0 = paper default of 20)"},
	{[]string{"-iterations", "-1"}, "volasim: volatile: Iterations -1: must be >= 0 (0 = paper default of 10)"},
	{[]string{"-commscale", "-1"}, "volasim: volatile: CommScale -1: must be >= 0 (0 = paper default of 1)"},
	{[]string{"-gantt", "-horizon", "-5"}, "volasim: -horizon -5: must be >= 2 to fit models"},
	{[]string{"-gantt", "-horizon", "0"}, "volasim: -horizon 0: must be >= 2 to fit models"},
	{[]string{"-gantt", "-horizon", "1"}, "volasim: -horizon 1: must be >= 2 to fit models"},
	{[]string{"-trials", "0"}, "volasim: -trials 0: must be >= 1"},
	{[]string{"-trials", "-3"}, "volasim: -trials -3: must be >= 1"},
}

// volasim runs this test binary as volasim with args.
func volasim(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "VOLASIM_MAIN=1")
	return cmd
}

// TestBadFlagsExitTwo pins volasim's flag validation end to end: each bad
// setting prints one "volasim: …" line naming the problem and exits 2,
// before any scenario is generated (no panic, no platform error).
func TestBadFlagsExitTwo(t *testing.T) {
	for _, c := range badFlags {
		out, err := volasim(c.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2; output:\n%s", c.args, err, out)
			continue
		}
		if got := strings.TrimSpace(string(out)); got != c.want {
			t.Errorf("%v: output %q, want %q", c.args, got, c.want)
		}
	}
}

// ganttDigest is the SHA-256 of the stdout of
// "volasim -gantt -n 5 -p 4 -horizon 300 -heuristic emct": the recorded
// availability, its replay on the traced scenario, the event stream and the
// rendered timeline.
const ganttDigest = "cb20a321cc72e129655fafeb887f0522a58501bfaf8168c7763742754422f047"

// TestGanttGolden pins volasim's -gantt output end to end.
func TestGanttGolden(t *testing.T) {
	out, err := volasim("-gantt", "-n", "5", "-p", "4", "-horizon", "300", "-heuristic", "emct").Output()
	if err != nil {
		t.Fatalf("volasim -gantt: %v", err)
	}
	sum := sha256.Sum256(out)
	if got := hex.EncodeToString(sum[:]); got != ganttDigest {
		t.Fatalf("gantt output digest %s, want %s; output:\n%s", got, ganttDigest, out)
	}
}

// TestValidateScenarioAcceptsDefaults checks that the flag defaults and the
// zero "paper default" options pass validation.
func TestValidateScenarioAcceptsDefaults(t *testing.T) {
	cell := volatile.Cell{Tasks: 20, Ncom: 10, Wmin: 3}
	for _, opt := range []volatile.ScenarioOptions{
		{Processors: 20, Iterations: 10, CommScale: 1},
		{},
	} {
		if err := validateScenario(cell, opt); err != nil {
			t.Errorf("%+v: %v", opt, err)
		}
	}
}
