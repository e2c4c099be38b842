package sweepreq

import (
	"fmt"
	"strings"
	"testing"
)

// TestValidateTable pins the request validation contract: the same inputs
// volabench rejects from flags are rejected here with the same
// flag-flavoured messages, since the service unmarshals this struct from
// JSON and replays the errors verbatim.
func TestValidateTable(t *testing.T) {
	ok := Request{Exp: "table2", Mode: "slot", Scenarios: 6, Trials: 4}
	cases := []struct {
		name    string
		mutate  func(r Request) Request
		wantErr string // substring; empty = valid
	}{
		{"baseline", func(r Request) Request { return r }, ""},
		{"event-mode", func(r Request) Request { r.Mode = "event"; return r }, ""},
		{"tracesweep", func(r Request) Request {
			r.Exp, r.TraceStyle, r.TraceLen = "tracesweep", "pareto", 500
			return r
		}, ""},
		{"trace-files", func(r Request) Request {
			r.Exp, r.TraceFiles = "tracesweep", []string{"a.trace"}
			return r
		}, ""},
		{"moldable", func(r Request) Request {
			r.Exp, r.Alloc = "moldable", "reshape:3"
			return r
		}, ""},
		{"moldable-default-alloc", func(r Request) Request {
			r.Exp = "moldable"
			return r
		}, ""},

		{"zero-scenarios", func(r Request) Request { r.Scenarios = 0; return r }, "-scenarios must be positive"},
		{"negative-trials", func(r Request) Request { r.Trials = -1; return r }, "-trials must be positive"},
		{"negative-workers", func(r Request) Request { r.Workers = -2; return r }, "-workers must be >= 0"},
		{"negative-procs", func(r Request) Request { r.Procs = -1; return r }, "-p must be >= 0"},
		{"bad-mode", func(r Request) Request { r.Mode = "warp"; return r }, `unknown mode "warp"`},
		{"bad-exp", func(r Request) Request { r.Exp = "table9"; return r }, `unknown experiment "table9"`},
		{"trace-files-elsewhere", func(r Request) Request {
			r.TraceFiles = []string{"a.trace"}
			return r
		}, "-trace-file applies only to -exp tracesweep"},
		{"alloc-elsewhere", func(r Request) Request {
			r.Alloc = "maximum-iters"
			return r
		}, "-alloc applies only to -exp moldable"},
		{"bad-alloc", func(r Request) Request {
			r.Exp, r.Alloc = "moldable", "zipf"
			return r
		}, "unknown alloc policy"},
		{"bad-alloc-arg", func(r Request) Request {
			r.Exp, r.Alloc = "moldable", "split-into:0"
			return r
		}, "must be a positive integer"},
		{"bad-trace-style", func(r Request) Request {
			r.Exp, r.TraceStyle = "tracesweep", "zipf"
			return r
		}, `unknown trace style "zipf"`},
		{"short-trace-len", func(r Request) Request {
			r.Exp, r.TraceLen = "tracesweep", 1
			return r
		}, "-trace-len must be >= 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.mutate(ok).Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want ok", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, c.wantErr)
			}
		})
	}
}

// TestBuildRejectsNonSweepExperiments pins that the CLI-only compositions
// cannot be submitted to the service path.
func TestBuildRejectsNonSweepExperiments(t *testing.T) {
	for _, exp := range []string{"ablation", "emctgain", "emctgain-norepl"} {
		_, err := Build(Request{Exp: exp})
		if err == nil || !strings.Contains(err.Error(), "does not run through the sweep pipeline") {
			t.Fatalf("Build(%q) = %v, want sweep-pipeline rejection", exp, err)
		}
	}
}

// TestBuildRejectsOversizedRequest pins the instance-count bound: a request
// beyond maxInstances is refused with a message naming the limit, and one
// exactly at it still builds.
func TestBuildRejectsOversizedRequest(t *testing.T) {
	_, err := Build(Request{Exp: "table2", Scenarios: 1 << 40})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("limit of %d instances", maxInstances)) {
		t.Fatalf("Build(table2, 2^40 scenarios) = %v, want the instance limit", err)
	}
	_, err = Build(Request{Exp: "largep", Scenarios: maxInstances + 1, Trials: 1})
	if err == nil {
		t.Fatal("Build(largep, maxInstances+1 scenarios) accepted")
	}
	b, err := Build(Request{Exp: "largep", Scenarios: maxInstances / 4, Trials: 4})
	if err != nil {
		t.Fatalf("Build at the limit: %v", err)
	}
	if b.Instances != maxInstances {
		t.Fatalf("Instances = %d, want %d", b.Instances, maxInstances)
	}
}

// TestBuildAppliesDefaults pins canonicalization: a minimal request and one
// spelling out the flag defaults build to the same content digest, so cache
// hits do not depend on how explicitly the client filled in the JSON.
func TestBuildAppliesDefaults(t *testing.T) {
	minimal, err := Build(Request{Exp: "table3x5"})
	if err != nil {
		t.Fatalf("Build(minimal) error: %v", err)
	}
	explicit, err := Build(Request{
		Exp: "table3x5", Mode: "slot", Scenarios: 6, Trials: 4,
		TraceStyle: "weibull", TraceLen: 1000,
	})
	if err != nil {
		t.Fatalf("Build(explicit) error: %v", err)
	}
	if minimal.Digest != explicit.Digest {
		t.Fatalf("defaulted digest %s != explicit digest %s", minimal.Digest, explicit.Digest)
	}
	if minimal.Instances != explicit.Instances || minimal.Instances != 24 {
		t.Fatalf("Instances = %d/%d, want 24 (1 cell x 6 scenarios x 4 trials)",
			minimal.Instances, explicit.Instances)
	}
}

// TestBuildDigestSeparatesConfigs pins that anything result-affecting moves
// the digest while execution-only knobs do not.
func TestBuildDigestSeparatesConfigs(t *testing.T) {
	base := Request{Exp: "table3x5", Scenarios: 2, Trials: 1, Seed: 7}
	ref, err := Build(base)
	if err != nil {
		t.Fatalf("Build(base) error: %v", err)
	}
	differ := map[string]Request{
		"seed":      {Exp: "table3x5", Scenarios: 2, Trials: 1, Seed: 8},
		"trials":    {Exp: "table3x5", Scenarios: 2, Trials: 2, Seed: 7},
		"exp":       {Exp: "table3x10", Scenarios: 2, Trials: 1, Seed: 7},
		"mode":      {Exp: "table3x5", Mode: "event", Scenarios: 2, Trials: 1, Seed: 7},
		"processor": {Exp: "table3x5", Scenarios: 2, Trials: 1, Seed: 7, Procs: 8},
	}
	for name, r := range differ {
		b, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%s) error: %v", name, err)
		}
		if b.Digest == ref.Digest {
			t.Fatalf("%s change did not move the digest (%s)", name, ref.Digest)
		}
	}
	same := map[string]Request{
		"workers":           {Exp: "table3x5", Scenarios: 2, Trials: 1, Seed: 7, Workers: 3},
		"continue-on-error": {Exp: "table3x5", Scenarios: 2, Trials: 1, Seed: 7, ContinueOnError: true},
	}
	for name, r := range same {
		b, err := Build(r)
		if err != nil {
			t.Fatalf("Build(%s) error: %v", name, err)
		}
		if b.Digest != ref.Digest {
			t.Fatalf("execution-only knob %s moved the digest: %s != %s", name, b.Digest, ref.Digest)
		}
	}
}

// TestBuildRunMatchesDigestContract runs the cheapest sweep twice and pins
// that equal config digests deliver bit-identical results.
func TestBuildRunMatchesDigestContract(t *testing.T) {
	req := Request{Exp: "table3x5", Scenarios: 2, Trials: 1, Seed: 3}
	a, err := Build(req)
	if err != nil {
		t.Fatalf("Build error: %v", err)
	}
	resA, err := a.Run(RunOpts{})
	if err != nil {
		t.Fatalf("Run error: %v", err)
	}
	b, err := Build(req)
	if err != nil {
		t.Fatalf("Build error: %v", err)
	}
	if b.Digest != a.Digest {
		t.Fatalf("config digest not stable: %s != %s", b.Digest, a.Digest)
	}
	resB, err := b.Run(RunOpts{Progress: func(done, total int) {}})
	if err != nil {
		t.Fatalf("Run error: %v", err)
	}
	if resA.Digest() != resB.Digest() {
		t.Fatalf("equal config digests, different results: %s != %s", resA.Digest(), resB.Digest())
	}
}

// TestSweepExperimentsAllBuild pins that every advertised sweep experiment
// actually builds (construction, heuristics resolution, digesting) from a
// minimal request.
func TestSweepExperimentsAllBuild(t *testing.T) {
	seen := map[string]bool{}
	for _, exp := range SweepExperiments() {
		b, err := Build(Request{Exp: exp, Scenarios: 1, Trials: 1})
		if err != nil {
			t.Fatalf("Build(%q) error: %v", exp, err)
		}
		if b.Digest == "" || b.Instances <= 0 || len(b.Heuristics) == 0 {
			t.Fatalf("Build(%q) = %+v, want digest/instances/heuristics populated", exp, b)
		}
		if seen[b.Digest] {
			t.Fatalf("experiment %q shares a digest with another experiment", exp)
		}
		seen[b.Digest] = true
	}
}

// pinnedRequestDigests are the config digests of every sweep experiment's
// flag-default request in both time bases. volaserved keys its cached
// results and request stubs on these digests, so a digest that moves
// orphans every result the service has stored. dfrs/event moved once,
// deliberately, when batch contenders stopped replaying the slot-mode world
// of an event-mode sweep.
var pinnedRequestDigests = map[string]string{
	"table2/slot":      "3105001a1f32641fb597aa72e47c65395f39b56d72e81a48c5ebf3e04ae7b4fd",
	"table2/event":     "03d7ad2eb88514dee8d1f368ea065ba77aff32c477aa9fe2af941a2a9c8df95c",
	"figure2/slot":     "43aa672b8c1c94753e3c59c0fb161569dec9e65c168a7160873acd91ffe441ed",
	"figure2/event":    "f9d969378f9fa3c2f556a862ec3546cba505e0286164251ddef66c2987f44239",
	"table3x5/slot":    "1cd59038563f5cca797d1f33953c4edb531d1228fb0be8bcab92ebaa97194e2b",
	"table3x5/event":   "4a8f2ff244d01025244bd1472cb9d577e8432fbbe3be9fe291854e4b86ffb3ef",
	"table3x10/slot":   "0d22f9836172647c32490a8d80fa9ff8744f1dd55eeabc7dc85c785717e7dc1f",
	"table3x10/event":  "41e18833c54cb1b71f3bf9ffc2135526b7f8814419eca1ab7337b698456ff8b1",
	"tracesweep/slot":  "0becb6a0008dc3c1f07d82c0bc6d35699072d758e648488c1210f8c80dd4c522",
	"tracesweep/event": "8c9c4b05bc37e4dfa15961471f3cf03c68a6e89ab8e82a5f2dfc9c6977a27b0b",
	"dfrs/slot":        "95ecdd705cd38f40390517fe0a8851394ba8e765b628fda7a08b5152db4a5a4e",
	"dfrs/event":       "53f6df8d0bcb3eca73b4c1fcd548498565f56919789541a6305aba2bc2734d5a",
	"largep/slot":      "46a3de59439ac28e37501beee7060a6708e60668dfa53d668f4e9133493c6e20",
	"largep/event":     "770e93c7a526c30f84d8f6522e0f76f572e17c05c27b4b5bfa592a5d8849bdd2",
	"moldable/slot":    "3976177d563c0fac6c443f8aea675d1d51d27b342b813376e6ea381368c546ae",
	"moldable/event":   "9529ee64b1245ba01a26e149465d21b3c58368d6caf5c1d1f7033444e7d3c242",
}

// TestPinnedRequestDigests pins pinnedRequestDigests for every
// SweepExperiments entry.
func TestPinnedRequestDigests(t *testing.T) {
	n := 0
	for _, exp := range SweepExperiments() {
		for _, mode := range []string{"slot", "event"} {
			b, err := Build(Request{Exp: exp, Mode: mode})
			if err != nil {
				t.Fatalf("Build(%s, %s) error: %v", exp, mode, err)
			}
			key := exp + "/" + mode
			if want := pinnedRequestDigests[key]; b.Digest != want {
				t.Errorf("%s digest moved: got %s, want %s", key, b.Digest, want)
			}
			// The defaults WithDefaults spells out are the ones Build applies.
			if d, err := Build(Request{Exp: exp, Mode: mode}.WithDefaults()); err != nil || d.Digest != b.Digest {
				t.Errorf("%s: defaulted request built %v (err %v), want digest %s", key, d, err, b.Digest)
			}
			n++
		}
	}
	if n != len(pinnedRequestDigests) {
		t.Errorf("pinned %d digests, SweepExperiments has %d (experiment, mode) pairs", len(pinnedRequestDigests), n)
	}
}
