package volatile

import (
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// moldableTestConfig is the small moldable sweep the determinism and
// crash/resume properties grind through: 2 cells × 3 scenarios = 6 chunks
// under the maximum-iters policy (the one whose decisions depend most on
// observed availability, so any nondeterminism in the decision inputs
// would show here first).
func moldableTestConfig() SweepConfig {
	return SweepConfig{
		Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 8, Ncom: 4, Wmin: 2}},
		Heuristics: []string{"emct", "mct*", "random2w"},
		Alloc:      "maximum-iters",
		Scenarios:  3,
		Trials:     2,
		Seed:       1234,
	}
}

// goldenMoldableDigest is the SHA-256 of the formatted output of
// moldableTestConfig's sweep, captured when the moldable family landed.
// It is the family's regression anchor: engine or policy changes that move
// it are behavioural changes, not refactors.
const goldenMoldableDigest = "3de61fe543eed972518d83176d0da24f624d56c98175941dc32ea979199dfc72"

// TestMoldableFixedMatchesRunSweep pins the bridge between moldable sweeps
// and the rigid goldens: under the "fixed" policy a sweep must produce the
// exact rigid result — same instances, same aggregates, bit for bit.
func TestMoldableFixedMatchesRunSweep(t *testing.T) {
	base := resumeTestConfig()
	ref, err := RunSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Alloc = "fixed"
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Format() != ref.Format() {
		t.Errorf("alloc=fixed sweep diverged from the rigid sweep:\nmoldable:\n%s\nrigid:\n%s",
			res.Format(), ref.Format())
	}
}

// TestMoldableSweepGoldenAndWorkerDeterminism locks the moldable family's
// numeric output under an adaptive policy and requires every worker count
// to reproduce it: the policy's decision inputs (UP counts at each
// iteration boundary) must be a pure function of the instance, never of
// scheduling across goroutines.
func TestMoldableSweepGoldenAndWorkerDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cfg := moldableTestConfig()
		cfg.Workers = workers
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Digest(); got != goldenMoldableDigest {
			t.Errorf("workers=%d moldable digest drifted:\n got  %s\n want %s\noutput:\n%s",
				workers, got, goldenMoldableDigest, res.Format())
		}
	}
}

// TestMoldableSweepCrossModeAndPolicies smoke-runs every policy family in
// both engine time bases and checks the family invariants: runs complete,
// and each policy's digest is internally reproducible.
func TestMoldableSweepCrossModeAndPolicies(t *testing.T) {
	for _, alloc := range []string{"fixed", "maximum-iters", "split-into:3", "reshape:1"} {
		for _, mode := range []Mode{ModeSlot, ModeEvent} {
			cfg := moldableTestConfig()
			cfg.Alloc = alloc
			cfg.Mode = mode
			cfg.Scenarios = 1
			res, err := RunSweep(cfg)
			if err != nil {
				t.Fatalf("alloc=%s mode=%v: %v", alloc, mode, err)
			}
			if res.Instances == 0 {
				t.Fatalf("alloc=%s mode=%v aggregated no instances", alloc, mode)
			}
			again, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if again.Digest() != res.Digest() {
				t.Errorf("alloc=%s mode=%v not reproducible: %s != %s", alloc, mode, again.Digest(), res.Digest())
			}
		}
	}
}

// TestMoldableSweepCrashResume extends the crash/resume property to the
// moldable pipeline: a sweep killed by an injected committer crash at any
// boundary and resumed from its checkpoint is bit-identical to an
// uninterrupted run — including the stateful reshape policy, whose
// run-boundary reset is what makes re-running a chunk reproducible.
func TestMoldableSweepCrashResume(t *testing.T) {
	for _, alloc := range []string{"maximum-iters", "reshape:2"} {
		base := moldableTestConfig()
		base.Alloc = alloc
		ref, err := RunSweep(base)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Digest()
		for _, k := range []int{1, 3, 5} {
			path := filepath.Join(t.TempDir(), "moldable.ckpt")
			crashed := base
			crashed.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
			crashed.Faults = &faultinject.Plan{CrashAfterChunks: k}
			if _, err := RunSweep(crashed); !errors.Is(err, faultinject.ErrCommitterCrash) {
				t.Fatalf("alloc=%s k=%d: crashed moldable sweep returned %v, want ErrCommitterCrash", alloc, k, err)
			}
			resumed := base
			resumed.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
			res, err := RunSweep(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Digest(); got != want {
				t.Fatalf("alloc=%s k=%d: resumed moldable sweep drifted: %s != %s", alloc, k, got, want)
			}
		}
	}
}

// TestMoldableConfigDigest pins the content-address contract: the policy
// (and its parameter) is part of the digest, so two sweeps differing only
// in policy never share checkpoints or cached results.
func TestMoldableConfigDigest(t *testing.T) {
	base := moldableTestConfig()
	digests := make(map[string]string)
	for _, alloc := range []string{"fixed", "maximum-iters", "split-into:2", "split-into:3", "reshape:2"} {
		cfg := base
		cfg.Alloc = alloc
		d, err := cfg.ConfigDigest()
		if err != nil {
			t.Fatal(err)
		}
		for prev, pd := range digests {
			if pd == d {
				t.Errorf("alloc %q and %q share digest %s", alloc, prev, d)
			}
		}
		digests[alloc] = d
	}
	// A moldable digest must also differ from the rigid sweep's on the
	// same grid (empty Alloc): flavour and policy both feed the hash.
	sw := base
	sw.Alloc = ""
	swd, err := sw.ConfigDigest()
	if err != nil {
		t.Fatal(err)
	}
	if swd == digests["fixed"] {
		t.Error("moldable 'fixed' sweep shares its digest with the rigid sweep")
	}

	cfg := base
	cfg.Alloc = "split-into:0"
	if _, err := cfg.ConfigDigest(); err == nil || !strings.Contains(err.Error(), "positive integer") {
		t.Errorf("ConfigDigest accepted bad alloc spec: %v", err)
	}
	cfg.Alloc = "nope"
	if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "unknown alloc policy") {
		t.Errorf("RunSweep accepted unknown alloc spec: %v", err)
	}
}
