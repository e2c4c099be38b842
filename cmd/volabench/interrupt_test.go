package main

import (
	"strings"
	"testing"

	volatile "repro"
	"repro/internal/sweepreq"
)

// TestValidateDurabilityTable pins the durability-flag contract: the flags
// apply only to sweep experiments, -resume and -crash-after require
// -checkpoint, and the counters must be sane.
func TestValidateDurabilityTable(t *testing.T) {
	ck := func(d durabilityArgs) durabilityArgs {
		if d.every == 0 {
			d.every = volatile.DefaultCheckpointEvery
		}
		return d
	}
	cases := []struct {
		name    string
		exp     string
		dur     durabilityArgs
		wantErr string // substring; empty = valid
	}{
		{"no-flags", "table2", durabilityArgs{}, ""},
		{"no-flags-ablation", "ablation", durabilityArgs{}, ""},
		{"checkpoint", "table2", ck(durabilityArgs{checkpoint: "x.ckpt"}), ""},
		{"checkpoint-resume", "tracesweep", ck(durabilityArgs{checkpoint: "x.ckpt", resume: true}), ""},
		{"crash-after", "table3x5", ck(durabilityArgs{checkpoint: "x.ckpt", crashAfter: 3}), ""},
		{"digest-only", "largep", ck(durabilityArgs{digest: true}), ""},
		{"continue-on-error", "dfrs", ck(durabilityArgs{continueOnError: true}), ""},
		{"every-sweep-exp", "figure2", ck(durabilityArgs{checkpoint: "x.ckpt"}), ""},

		{"resume-without-checkpoint", "table2", ck(durabilityArgs{resume: true}), "-resume needs -checkpoint"},
		{"crash-without-checkpoint", "table2", ck(durabilityArgs{crashAfter: 2}), "-crash-after without -checkpoint"},
		{"negative-crash", "table2", ck(durabilityArgs{checkpoint: "x.ckpt", crashAfter: -1}), "-crash-after must be >= 0"},
		{"zero-every", "table2", durabilityArgs{checkpoint: "x.ckpt"}, "-checkpoint-every must be positive"},
		{"checkpoint-ablation", "ablation", ck(durabilityArgs{checkpoint: "x.ckpt"}), "apply only to sweep experiments"},
		{"digest-emctgain", "emctgain", ck(durabilityArgs{digest: true}), "apply only to sweep experiments"},
		{"continue-on-error-emctgain-norepl", "emctgain-norepl", ck(durabilityArgs{continueOnError: true}), "apply only to sweep experiments"},

		// A negative -checkpoint-every is rejected even when it is the only
		// durability flag: before PR 9 it silently fell through to the
		// library, which substituted the default cadence.
		{"negative-every-alone", "table2", durabilityArgs{every: -8}, "-checkpoint-every must be positive"},
		{"negative-every-with-checkpoint", "table2", durabilityArgs{checkpoint: "x.ckpt", every: -1}, "-checkpoint-every must be positive"},
		{"negative-every-non-sweep", "ablation", durabilityArgs{every: -1}, "-checkpoint-every must be positive"},
		// A non-default cadence with no checkpoint file would be ignored
		// silently; require -checkpoint to give it something to pace.
		{"every-without-checkpoint", "table2", durabilityArgs{every: 5}, "-checkpoint-every needs -checkpoint"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateDurability(c.exp, c.dur)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("validateDurability(%q, %+v) = %v, want ok", c.exp, c.dur, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("validateDurability(%q, %+v) = %v, want error containing %q", c.exp, c.dur, err, c.wantErr)
			}
		})
	}
}

// TestDurabilityRejectedForEveryNonSweepExperiment cross-checks the two
// experiment lists: every advertised experiment either supports the
// durability flags or rejects them with the sweep-experiment message.
func TestDurabilityRejectedForEveryNonSweepExperiment(t *testing.T) {
	sweep := make(map[string]bool)
	for _, e := range sweepreq.SweepExperiments() {
		if err := (sweepreq.Request{Exp: e, Mode: "slot", Scenarios: 1, Trials: 1}).Validate(); err != nil {
			t.Fatalf("SweepExperiments lists %q, which validation rejects: %v", e, err)
		}
		sweep[e] = true
	}
	d := durabilityArgs{checkpoint: "x.ckpt", every: 1}
	for _, e := range usageExperiments {
		err := validateDurability(e, d)
		if sweep[e] != (err == nil) {
			t.Fatalf("experiment %q: durability flags accepted=%v, want %v (err %v)", e, err == nil, sweep[e], err)
		}
	}
}

// TestResumeCommandTable pins the printed resume command: -crash-after is
// stripped (in both flag spellings), -resume is appended exactly once.
func TestResumeCommandTable(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want string
	}{
		{
			"append-resume",
			[]string{"volabench", "-exp", "table2", "-checkpoint", "x.ckpt"},
			"volabench -exp table2 -checkpoint x.ckpt -resume",
		},
		{
			"strip-crash-after-pair",
			[]string{"volabench", "-exp", "table2", "-checkpoint", "x.ckpt", "-crash-after", "3"},
			"volabench -exp table2 -checkpoint x.ckpt -resume",
		},
		{
			"strip-crash-after-eq",
			[]string{"volabench", "-crash-after=3", "-checkpoint", "x.ckpt"},
			"volabench -checkpoint x.ckpt -resume",
		},
		{
			"strip-double-dash-form",
			[]string{"volabench", "--crash-after", "3", "--checkpoint", "x.ckpt"},
			"volabench --checkpoint x.ckpt -resume",
		},
		{
			"resume-already-present",
			[]string{"volabench", "-checkpoint", "x.ckpt", "-resume"},
			"volabench -checkpoint x.ckpt -resume",
		},
		{
			"keeps-other-flags",
			[]string{"volabench", "-exp", "tracesweep", "-mode", "event", "-seed", "7", "-checkpoint", "x.ckpt"},
			"volabench -exp tracesweep -mode event -seed 7 -checkpoint x.ckpt -resume",
		},
		// Shell quoting: a path with a space must survive a copy-paste back
		// into a POSIX shell, in both the pair and the = flag spellings.
		{
			"quotes-space-in-pair-value",
			[]string{"volabench", "-exp", "table2", "-checkpoint", "my run.ckpt"},
			"volabench -exp table2 -checkpoint 'my run.ckpt' -resume",
		},
		{
			"quotes-space-in-eq-form",
			[]string{"volabench", "-checkpoint=my run.ckpt"},
			"volabench '-checkpoint=my run.ckpt' -resume",
		},
		{
			"quotes-embedded-single-quote",
			[]string{"volabench", "-checkpoint", "it's.ckpt"},
			`volabench -checkpoint 'it'\''s.ckpt' -resume`,
		},
		{
			"quotes-argv0-with-space",
			[]string{"/tmp/my tools/volabench", "-checkpoint", "x.ckpt"},
			"'/tmp/my tools/volabench' -checkpoint x.ckpt -resume",
		},
		{
			"quotes-shell-metacharacters",
			[]string{"volabench", "-checkpoint", "runs/$(date).ckpt", "-trace-file", "a;b.trace"},
			"volabench -checkpoint 'runs/$(date).ckpt' -trace-file 'a;b.trace' -resume",
		},
		{
			"quotes-empty-value",
			[]string{"volabench", "-checkpoint", ""},
			"volabench -checkpoint '' -resume",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := resumeCommand(c.argv); got != c.want {
				t.Fatalf("resumeCommand(%v)\n got  %q\n want %q", c.argv, got, c.want)
			}
		})
	}
}

// TestInterruptOutcome pins the graceful-interrupt exit contract: code 130
// and a message naming the progress, the checkpoint and the resume command.
func TestInterruptOutcome(t *testing.T) {
	ie := &volatile.InterruptedError{Path: "x.ckpt", Committed: 7, Chunks: 40}
	code, msg := interruptOutcome(ie, "volabench -exp table2 -checkpoint x.ckpt -resume")
	if code != 130 {
		t.Fatalf("exit code %d, want 130", code)
	}
	for _, want := range []string{"7/40", "x.ckpt", "resume with: volabench -exp table2 -checkpoint x.ckpt -resume"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("interrupt message %q missing %q", msg, want)
		}
	}
}
