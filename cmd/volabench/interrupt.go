package main

// Durability plumbing for the sweep experiments: the -checkpoint/-resume/
// -continue-on-error flag bundle, its validation, and the graceful-interrupt
// outcome (exit code + resume command). Everything here is a pure function
// of its inputs so the table tests in interrupt_test.go can pin the CLI
// contract without running sweeps or delivering signals.

import (
	"fmt"
	"strings"

	volatile "repro"
	"repro/internal/faultinject"
	"repro/internal/sweepreq"
)

// durabilityArgs bundles the durability flags after parsing.
type durabilityArgs struct {
	checkpoint      string
	every           int
	resume          bool
	crashAfter      int
	digest          bool
	continueOnError bool
	stop            chan struct{}
}

// set reports whether any durability flag differs from its default. A
// non-default -checkpoint-every counts: it is meaningless without
// -checkpoint and must not be ignored silently.
func (d durabilityArgs) set() bool {
	return d.checkpoint != "" || d.resume || d.crashAfter != 0 || d.digest ||
		d.continueOnError || (d.every != 0 && d.every != volatile.DefaultCheckpointEvery)
}

// validateDurability rejects inconsistent durability flags before any sweep
// work starts. Only the experiments that run through the sharded sweep
// pipeline (sweepreq.IsSweep) support them: the others (ablation,
// emctgain*) run several sweeps or none, and a checkpoint file would be
// silently overwritten mid-way.
func validateDurability(exp string, d durabilityArgs) error {
	// A negative interval is always a typo, whatever the other flags say:
	// the library would otherwise have to choose between erroring late and
	// silently substituting the default cadence.
	if d.every < 0 {
		return fmt.Errorf("-checkpoint-every must be positive (got %d)", d.every)
	}
	if !d.set() {
		return nil
	}
	if !sweepreq.IsSweep(exp) {
		return fmt.Errorf("-checkpoint/-resume/-crash-after/-digest/-continue-on-error apply only to sweep experiments (%s), not %q",
			strings.Join(sweepreq.SweepExperiments(), ", "), exp)
	}
	if d.every <= 0 {
		return fmt.Errorf("-checkpoint-every must be positive (got %d)", d.every)
	}
	if d.crashAfter < 0 {
		return fmt.Errorf("-crash-after must be >= 0, where 0 disables the injected crash (got %d)", d.crashAfter)
	}
	if d.resume && d.checkpoint == "" {
		return fmt.Errorf("-resume needs -checkpoint to name the file to resume from")
	}
	if d.crashAfter > 0 && d.checkpoint == "" {
		return fmt.Errorf("-crash-after without -checkpoint would lose the progress it simulates losing; add -checkpoint")
	}
	if d.every != volatile.DefaultCheckpointEvery && d.checkpoint == "" {
		return fmt.Errorf("-checkpoint-every needs -checkpoint to name the file it paces")
	}
	return nil
}

// checkpointConfig builds the library checkpoint config ("" path → nil).
func (d durabilityArgs) checkpointConfig() *volatile.CheckpointConfig {
	if d.checkpoint == "" {
		return nil
	}
	return &volatile.CheckpointConfig{Path: d.checkpoint, Every: d.every, Resume: d.resume}
}

// faultPlan builds the injection plan (-crash-after only; nil when off).
func (d durabilityArgs) faultPlan() *faultinject.Plan {
	if d.crashAfter == 0 {
		return nil
	}
	return &faultinject.Plan{CrashAfterChunks: d.crashAfter}
}

// interruptOutcome maps a graceful interrupt to its exit code (130, the
// shell convention for SIGINT) and the message naming the committed
// progress and the resume command.
func interruptOutcome(ie *volatile.InterruptedError, resumeCmd string) (code int, msg string) {
	return 130, fmt.Sprintf("volabench: %v\nvolabench: resume with: %s", ie, resumeCmd)
}

// resumeCommand rebuilds the invocation that continues an interrupted
// sweep: the original argv with any -crash-after injection stripped (a
// resume should not re-crash) and -resume appended if absent. Each printed
// token is shell-quoted as needed, so a -checkpoint or -trace-file path
// containing spaces (or any other shell metacharacter) yields a command
// that can be copied back into a POSIX shell verbatim.
func resumeCommand(argv []string) string {
	out := make([]string, 0, len(argv)+1)
	hasResume := false
	skipValue := false
	for i, a := range argv {
		if i == 0 {
			out = append(out, shellQuote(a))
			continue
		}
		if skipValue {
			skipValue = false
			continue
		}
		name, hasEq := a, strings.Contains(a, "=")
		if hasEq {
			name = a[:strings.Index(a, "=")]
		}
		switch strings.TrimLeft(name, "-") {
		case "crash-after":
			skipValue = !hasEq // "-crash-after 3" carries its value in the next arg
			continue
		case "resume":
			hasResume = true
		}
		out = append(out, shellQuote(a))
	}
	if !hasResume {
		out = append(out, "-resume")
	}
	return strings.Join(out, " ")
}

// shellQuote returns s single-quoted for a POSIX shell when it contains
// anything outside the conservative always-safe set; plain tokens (flag
// names, numbers, simple paths, -flag=value pairs) pass through unchanged.
// An embedded single quote closes the quoting, emits a backslash-escaped
// quote, and reopens it (the standard POSIX splice).
func shellQuote(s string) string {
	if s == "" {
		return "''"
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		safe := ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9') ||
			c == '-' || c == '_' || c == '.' || c == '/' || c == '=' ||
			c == ',' || c == ':' || c == '+' || c == '@' || c == '%'
		if !safe {
			return "'" + strings.ReplaceAll(s, "'", `'\''`) + "'"
		}
	}
	return s
}
