package main

import (
	"strings"
	"testing"

	"repro/internal/sweepreq"
)

// usageExperiments is every -exp value the usage text advertises, in its
// order.
var usageExperiments = []string{
	"table2", "figure2", "table3x5", "table3x10",
	"ablation", "emctgain", "emctgain-norepl", "tracesweep", "dfrs",
	"largep", "moldable",
}

// TestValidateArgsTable pins the CLI's input validation — the
// sweepreq.Request.Validate main applies to the flags, the same validation
// cmd/volaserved applies to JSON submissions: every experiment name the
// usage text advertises is accepted with the default knobs, and unusable
// knobs fail fast with an actionable message.
func TestValidateArgsTable(t *testing.T) {
	cases := []struct {
		name      string
		exp       string
		mode      string
		scenarios int
		trials    int
		workers   int
		procs     int
		wantErr   string // substring; empty = valid
	}{
		// Every advertised experiment with the flag defaults.
		{"table2-defaults", "table2", "slot", 6, 4, 0, 0, ""},
		{"figure2", "figure2", "slot", 6, 4, 0, 0, ""},
		{"table3x5", "table3x5", "slot", 6, 4, 0, 0, ""},
		{"table3x10", "table3x10", "slot", 6, 4, 0, 0, ""},
		{"ablation", "ablation", "slot", 6, 4, 0, 0, ""},
		{"emctgain", "emctgain", "slot", 6, 4, 0, 0, ""},
		{"emctgain-norepl", "emctgain-norepl", "slot", 6, 4, 0, 0, ""},
		{"tracesweep", "tracesweep", "slot", 6, 4, 0, 0, ""},
		{"dfrs", "dfrs", "slot", 6, 4, 0, 0, ""},
		{"largep", "largep", "slot", 6, 4, 0, 0, ""},
		// Explicit worker counts stay valid; 0 means all cores.
		{"explicit-workers", "table2", "slot", 1, 1, 8, 0, ""},
		// Platform-size overrides: 0 means the experiment default.
		{"largep-10k", "largep", "event", 1, 1, 0, 10_000, ""},
		{"table2-p1000", "table2", "slot", 6, 4, 0, 1000, ""},
		// Every experiment accepts the event time base too.
		{"table2-event", "table2", "event", 6, 4, 0, 0, ""},
		{"tracesweep-event", "tracesweep", "event", 6, 4, 0, 0, ""},
		{"dfrs-event", "dfrs", "event", 6, 4, 0, 0, ""},
		{"emctgain-event", "emctgain", "event", 6, 4, 0, 0, ""},
		{"largep-event", "largep", "event", 6, 4, 0, 0, ""},

		{"zero-scenarios", "table2", "slot", 0, 4, 0, 0, "-scenarios must be positive"},
		{"negative-scenarios", "table2", "slot", -3, 4, 0, 0, "-scenarios must be positive"},
		{"zero-trials", "table2", "slot", 6, 0, 0, 0, "-trials must be positive"},
		{"negative-trials", "table2", "slot", 6, -1, 0, 0, "-trials must be positive"},
		{"negative-workers", "table2", "slot", 6, 4, -2, 0, "-workers must be >= 0"},
		{"negative-procs", "largep", "slot", 6, 4, 0, -100, "-p must be >= 0"},
		{"unknown-exp", "tabel2", "slot", 6, 4, 0, 0, `unknown experiment "tabel2"`},
		{"empty-exp", "", "slot", 6, 4, 0, 0, "unknown experiment"},
		{"unknown-mode", "table2", "evnt", 6, 4, 0, 0, `unknown mode "evnt"`},
		{"empty-mode", "table2", "", 6, 4, 0, 0, "unknown mode"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req := sweepreq.Request{Exp: c.exp, Mode: c.mode, Scenarios: c.scenarios,
				Trials: c.trials, Workers: c.workers, Procs: c.procs}
			err := req.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("%+v.Validate() = %v, want ok", req, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("%+v.Validate() = %v, want error containing %q", req, err, c.wantErr)
			}
		})
	}
}

// TestUnknownExperimentListsAllNames pins that a typo'd -exp names every
// valid experiment, so the error is self-serve.
func TestUnknownExperimentListsAllNames(t *testing.T) {
	err := sweepreq.Request{Exp: "nope", Mode: "slot", Scenarios: 1, Trials: 1}.Validate()
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range usageExperiments {
		if !strings.Contains(err.Error(), e) {
			t.Fatalf("error %q does not list experiment %q", err, e)
		}
	}
}

// TestUnknownModeListsAllNames pins the -mode fail-fast path the same way:
// a typo'd time base names every valid mode.
func TestUnknownModeListsAllNames(t *testing.T) {
	err := sweepreq.Request{Exp: "table2", Mode: "sloot", Scenarios: 1, Trials: 1}.Validate()
	if err == nil {
		t.Fatal("unknown mode accepted")
	}
	for _, m := range []string{"slot", "event"} {
		if !strings.Contains(err.Error(), m) {
			t.Fatalf("error %q does not list mode %q", err, m)
		}
	}
}
