package volatile

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faultinject"
)

// resumeTestConfig is the small sweep the crash/resume property tests grind
// through: 2 cells × 3 scenarios = 6 chunks, enough boundaries to crash at
// every one of them quickly.
func resumeTestConfig() SweepConfig {
	return SweepConfig{
		Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 8, Ncom: 4, Wmin: 2}},
		Heuristics: []string{"emct", "mct*", "random2w"},
		Scenarios:  3,
		Trials:     2,
		Seed:       1234,
	}
}

// mustDigest runs the sweep and returns its result digest.
func mustDigest(t *testing.T, cfg SweepConfig) string {
	t.Helper()
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Digest()
}

// TestCrashAtEveryChunkBoundaryResumesBitIdentical is the tentpole property:
// for every chunk boundary k, in both engine modes and across worker counts,
// a sweep killed by an injected committer crash at k and resumed from its
// checkpoint produces a result bit-identical to an uninterrupted run. k=1
// also covers the no-checkpoint-written-yet crash (resume from a missing
// file restarts from scratch).
func TestCrashAtEveryChunkBoundaryResumesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("boundary × mode × workers product sweep is a few seconds long")
	}
	for _, mode := range []Mode{ModeSlot, ModeEvent} {
		base := resumeTestConfig()
		base.Mode = mode
		want := mustDigest(t, base)
		chunks := len(base.Cells) * base.Scenarios
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			for k := 1; k < chunks; k++ {
				path := filepath.Join(t.TempDir(), "sweep.ckpt")

				crashed := base
				crashed.Workers = workers
				crashed.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
				crashed.Faults = &faultinject.Plan{CrashAfterChunks: k}
				if _, err := RunSweep(crashed); !errors.Is(err, faultinject.ErrCommitterCrash) {
					t.Fatalf("mode=%v workers=%d k=%d: crashed run returned %v, want ErrCommitterCrash", mode, workers, k, err)
				}
				// The crash lands after merging chunk k but before
				// checkpointing it, so the file (when one exists) must hold
				// watermark k-1 — the resume re-runs the lost chunk.
				if k > 1 {
					snap, err := checkpoint.Load(path)
					if err != nil {
						t.Fatalf("mode=%v workers=%d k=%d: crashed checkpoint unreadable: %v", mode, workers, k, err)
					}
					if snap.NextChunk != k-1 {
						t.Fatalf("mode=%v workers=%d k=%d: checkpoint watermark %d, want %d", mode, workers, k, snap.NextChunk, k-1)
					}
				}

				resumed := base
				resumed.Workers = workers
				resumed.Checkpoint = &CheckpointConfig{Path: path, Every: 1, Resume: true}
				if got := mustDigest(t, resumed); got != want {
					t.Fatalf("mode=%v workers=%d k=%d: resumed digest %s != uninterrupted %s", mode, workers, k, got, want)
				}
			}
		}
	}
}

// TestMidSweepResumeReproducesGoldenDigest crosses the crash/resume property
// with the repo's golden anchor: a golden-config sweep started at workers=4,
// crashed mid-flight, and resumed at workers=1 must still land exactly on
// goldenSweepDigest — resume changes neither the numbers nor their
// floating-point summation order, even across a parallelism change.
func TestMidSweepResumeReproducesGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden sweep is a few seconds long")
	}
	path := filepath.Join(t.TempDir(), "golden.ckpt")

	crashed := goldenSweepConfig()
	crashed.Workers = 4
	crashed.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	crashed.Faults = &faultinject.Plan{CrashAfterChunks: 3}
	if _, err := RunSweep(crashed); !errors.Is(err, faultinject.ErrCommitterCrash) {
		t.Fatalf("crashed run returned %v, want ErrCommitterCrash", err)
	}

	resumed := goldenSweepConfig()
	resumed.Workers = 1
	resumed.Checkpoint = &CheckpointConfig{Path: path, Every: 1, Resume: true}
	res, err := RunSweep(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Digest(); got != goldenSweepDigest {
		t.Fatalf("resumed golden sweep drifted:\n got  %s\n want %s\noutput:\n%s", got, goldenSweepDigest, res.Format())
	}
}

// TestResumeWithCoarseCheckpointInterval pins the floor-watermark property:
// with Every > 1 the checkpoint lags the commit cursor, so a resume re-runs
// the chunks since the last write — and still matches bit for bit.
func TestResumeWithCoarseCheckpointInterval(t *testing.T) {
	base := resumeTestConfig()
	want := mustDigest(t, base)
	path := filepath.Join(t.TempDir(), "coarse.ckpt")

	crashed := base
	crashed.Checkpoint = &CheckpointConfig{Path: path, Every: 3}
	crashed.Faults = &faultinject.Plan{CrashAfterChunks: 5}
	if _, err := RunSweep(crashed); !errors.Is(err, faultinject.ErrCommitterCrash) {
		t.Fatalf("crashed run returned %v, want ErrCommitterCrash", err)
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if snap.NextChunk != 3 {
		t.Fatalf("Every=3 checkpoint holds watermark %d, want 3", snap.NextChunk)
	}

	resumed := base
	resumed.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
	if got := mustDigest(t, resumed); got != want {
		t.Fatalf("coarse-interval resume drifted: %s != %s", got, want)
	}
}

// TestCheckpointWriteFailureDegradesGracefully pins the degradation policy:
// checkpoint-I/O faults must not fail the sweep or change its numbers, only
// surface as Warnings.
func TestCheckpointWriteFailureDegradesGracefully(t *testing.T) {
	base := resumeTestConfig()
	want := mustDigest(t, base)

	cfg := base
	cfg.Checkpoint = &CheckpointConfig{Path: filepath.Join(t.TempDir(), "fail.ckpt"), Every: 1}
	cfg.Faults = &faultinject.Plan{Checkpoint: faultinject.CheckpointFailures(0, 1, 2, 3, 4, 5, 6)}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("sweep failed on checkpoint-I/O faults: %v", err)
	}
	if got := res.Digest(); got != want {
		t.Fatalf("checkpoint faults changed the result: %s != %s", got, want)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("failed checkpoint writes produced no Warnings")
	}
	if !strings.Contains(res.Warnings[0], "checkpoint write") {
		t.Fatalf("warning %q does not describe the failed write", res.Warnings[0])
	}
}

// TestUnwritableCheckpointPathWarns exercises the real (non-injected)
// checkpoint-write failure: a directory that does not exist.
func TestUnwritableCheckpointPathWarns(t *testing.T) {
	base := resumeTestConfig()
	want := mustDigest(t, base)

	cfg := base
	cfg.Checkpoint = &CheckpointConfig{Path: filepath.Join(t.TempDir(), "no", "such", "dir", "x.ckpt"), Every: 1}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("sweep failed on unwritable checkpoint path: %v", err)
	}
	if got := res.Digest(); got != want {
		t.Fatalf("unwritable checkpoint path changed the result: %s != %s", got, want)
	}
	if len(res.Warnings) == 0 {
		t.Fatal("unwritable checkpoint path produced no Warnings")
	}
}

// TestPersistentFaultRecordAndContinue pins the censor path: an instance
// that fails under ContinueOnError is dropped from the aggregates, counted
// in FailedInstances, sampled in InstanceErrors — and the degraded result
// is identical for every worker count.
func TestPersistentFaultRecordAndContinue(t *testing.T) {
	base := resumeTestConfig()
	total := len(base.Cells) * base.Scenarios * base.Trials

	mk := func(workers int) *SweepResult {
		cfg := base
		cfg.Workers = workers
		cfg.ContinueOnError = true
		cfg.Faults = &faultinject.Plan{Instance: faultinject.PersistentInstanceFault(3, 1)}
		res, err := RunSweep(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := mk(1)
	if ref.FailedInstances != 1 {
		t.Fatalf("FailedInstances = %d, want 1", ref.FailedInstances)
	}
	if ref.Instances != total-1 {
		t.Fatalf("Instances = %d, want %d (one dropped)", ref.Instances, total-1)
	}
	if len(ref.InstanceErrors) == 0 || !strings.Contains(ref.InstanceErrors[0], "persistent fault") {
		t.Fatalf("InstanceErrors %v does not sample the fault", ref.InstanceErrors)
	}
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		got := mk(workers)
		if got.Format() != ref.Format() || got.FailedInstances != ref.FailedInstances {
			t.Fatalf("workers=%d degraded result diverged from workers=1", workers)
		}
	}
}

// TestPersistentFaultAbortsWithoutContinueOnError pins the default policy:
// a failed instance without ContinueOnError fails the sweep with the
// instance's error.
func TestPersistentFaultAbortsWithoutContinueOnError(t *testing.T) {
	cfg := resumeTestConfig()
	cfg.Faults = &faultinject.Plan{Instance: faultinject.PersistentInstanceFault(3, 1)}
	if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "persistent fault") {
		t.Fatalf("RunSweep = %v, want the persistent-fault error", err)
	}
}

// TestGracefulStopAndResume pins the Stop channel path: a sweep interrupted
// through Stop returns *InterruptedError, its final checkpoint holds the
// committed prefix, and a resume completes to the uninterrupted digest.
func TestGracefulStopAndResume(t *testing.T) {
	base := SweepConfig{
		Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 8, Ncom: 4, Wmin: 2}},
		Heuristics: []string{"emct", "mct*"},
		Scenarios:  8, // 16 chunks: more than one worker's feed window, so Stop lands mid-feed
		Trials:     1,
		Seed:       4321,
	}
	want := mustDigest(t, base)
	path := filepath.Join(t.TempDir(), "stop.ckpt")

	stopCh := make(chan struct{})
	var once sync.Once
	cfg := base
	cfg.Workers = 1
	cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	cfg.Stop = stopCh
	cfg.Progress = func(done, total int) {
		once.Do(func() { close(stopCh) })
	}
	_, err := RunSweep(cfg)
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		t.Fatalf("stopped sweep returned %v, want *InterruptedError", err)
	}
	if ie.Committed <= 0 || ie.Committed >= ie.Chunks {
		t.Fatalf("interrupt committed %d of %d chunks, want a strict prefix", ie.Committed, ie.Chunks)
	}
	if ie.Path != path || !strings.Contains(ie.Error(), path) {
		t.Fatalf("InterruptedError %q does not carry the checkpoint path", ie.Error())
	}
	snap, err := checkpoint.Load(path)
	if err != nil {
		t.Fatalf("final checkpoint unreadable after graceful stop: %v", err)
	}
	if snap.NextChunk != ie.Committed {
		t.Fatalf("checkpoint watermark %d != reported committed %d", snap.NextChunk, ie.Committed)
	}

	resumed := base
	resumed.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
	if got := mustDigest(t, resumed); got != want {
		t.Fatalf("resume after graceful stop drifted: %s != %s", got, want)
	}
}

// TestResumeCompletedCheckpoint pins resume idempotence: resuming a sweep
// whose checkpoint already covers every chunk re-runs nothing and returns
// the identical result.
func TestResumeCompletedCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "done.ckpt")
	cfg := resumeTestConfig()
	cfg.Checkpoint = &CheckpointConfig{Path: path}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
	cfg.Progress = func(done, total int) {
		t.Errorf("resume of a completed checkpoint ran instance %d/%d", done, total)
	}
	again, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest() != res.Digest() {
		t.Fatalf("completed-checkpoint resume drifted: %s != %s", again.Digest(), res.Digest())
	}
}

// TestResumeRejectsMismatchedConfig pins the digest guard: a checkpoint
// must not resume into a sweep whose config differs in anything that
// shapes the numbers.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "guard.ckpt")
	cfg := resumeTestConfig()
	cfg.Checkpoint = &CheckpointConfig{Path: path}
	if _, err := RunSweep(cfg); err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*SweepConfig){
		"seed":       func(c *SweepConfig) { c.Seed++ },
		"mode":       func(c *SweepConfig) { c.Mode = ModeEvent },
		"heuristics": func(c *SweepConfig) { c.Heuristics = []string{"emct", "mct*"} },
		"trials":     func(c *SweepConfig) { c.Trials++ },
		"options":    func(c *SweepConfig) { c.Options.CommScale = 5 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := resumeTestConfig()
			mutate(&bad)
			bad.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
			if _, err := RunSweep(bad); err == nil || !strings.Contains(err.Error(), "different sweep config") {
				t.Fatalf("mismatched %s resumed anyway: %v", name, err)
			}
		})
	}
}

// TestWorkerAbortWritesFinalCheckpoint pins that even a fail-fast abort
// flushes the committed prefix, and the error names the checkpoint so the
// operator knows a resume is possible.
func TestWorkerAbortWritesFinalCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "abort.ckpt")
	cfg := resumeTestConfig()
	cfg.Workers = 1
	cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	cfg.Faults = &faultinject.Plan{Instance: faultinject.PersistentInstanceFault(2, 0)}
	_, err := RunSweep(cfg)
	if err == nil || !strings.Contains(err.Error(), "persistent fault") {
		t.Fatalf("RunSweep = %v, want the persistent-fault error", err)
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("abort error %q does not point at the checkpoint", err)
	}
	snap, ckErr := checkpoint.Load(path)
	if ckErr != nil {
		t.Fatalf("no usable checkpoint after abort: %v", ckErr)
	}
	if snap.NextChunk != 2 {
		t.Fatalf("abort checkpoint watermark %d, want 2 (chunks before the poisoned one)", snap.NextChunk)
	}

	// With the fault gone, resume completes to the uninterrupted digest.
	clean := resumeTestConfig()
	clean.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
	if got, want := mustDigest(t, clean), mustDigest(t, resumeTestConfig()); got != want {
		t.Fatalf("resume after abort drifted: %s != %s", got, want)
	}
}

// TestTraceSweepCrashResume extends the crash/resume property to the
// trace-driven pipeline (synthetic traces, model fitting, the same sharded
// committer).
func TestTraceSweepCrashResume(t *testing.T) {
	base := SweepConfig{
		Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 10, Ncom: 5, Wmin: 2}},
		Heuristics: []string{"emct", "mct*", "random2w"},
		Scenarios:  2,
		Trials:     2,
		Trace:      &TraceSource{Style: TraceWeibull, Len: 150},
		Options:    ScenarioOptions{Processors: 6, Iterations: 2},
		Seed:       2026,
	}
	ref, err := RunSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Digest()
	for _, k := range []int{1, 2, 3} {
		path := filepath.Join(t.TempDir(), "trace.ckpt")
		crashed := base
		crashed.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
		crashed.Faults = &faultinject.Plan{CrashAfterChunks: k}
		if _, err := RunSweep(crashed); !errors.Is(err, faultinject.ErrCommitterCrash) {
			t.Fatalf("k=%d: crashed trace sweep returned %v, want ErrCommitterCrash", k, err)
		}
		resumed := base
		resumed.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
		res, err := RunSweep(resumed)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Digest(); got != want {
			t.Fatalf("k=%d: resumed trace sweep drifted: %s != %s", k, got, want)
		}
	}
}

// TestCompareSweepCrashResume extends the property to the DFRS comparison
// pipeline (fractional heuristics + batch disciplines per instance).
func TestCompareSweepCrashResume(t *testing.T) {
	base := SweepConfig{
		Cells:      []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}},
		Heuristics: []string{"emct", "mct*", BatchFCFS, BatchEASY},
		Scenarios:  3,
		Trials:     1,
		Seed:       77,
	}
	ref, err := RunSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Digest()
	path := filepath.Join(t.TempDir(), "cmp.ckpt")
	crashed := base
	crashed.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	crashed.Faults = &faultinject.Plan{CrashAfterChunks: 2}
	if _, err := RunSweep(crashed); !errors.Is(err, faultinject.ErrCommitterCrash) {
		t.Fatalf("crashed compare sweep returned %v, want ErrCommitterCrash", err)
	}
	resumed := base
	resumed.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
	res, err := RunSweep(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Digest(); got != want {
		t.Fatalf("resumed compare sweep drifted: %s != %s", got, want)
	}

	// A comparison checkpoint must not resume into a batch-only sweep of
	// the same shape (different contender set, different digest).
	batchCfg := base
	batchCfg.Heuristics = BatchDisciplines()
	batchCfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
	if _, err := RunSweep(batchCfg); err == nil || !strings.Contains(err.Error(), "different sweep config") {
		t.Fatalf("batch-only sweep resumed a comparison checkpoint: %v", err)
	}
}

// TestFormatMatchesDigest pins that Digest is exactly the SHA-256 of
// Format — the invariant the golden tests and the volabench -digest flag
// both rely on.
func TestFormatMatchesDigest(t *testing.T) {
	res, err := RunSweep(resumeTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(res.Format()))
	if got := hex.EncodeToString(sum[:]); got != res.Digest() {
		t.Fatalf("Digest %s is not the hash of Format (%s)", res.Digest(), got)
	}
}

// TestCommitQueueBoundsStartedChunks pins the memory bound of the commit
// queue: while chunk 0 stalls the commit, at most 4×workers+5 other chunks
// may start, however many the grid holds. Chunk 0's hook holds it for up
// to a second, or until the bound is exceeded.
func TestCommitQueueBoundsStartedChunks(t *testing.T) {
	const workers = 2
	const bound = 4*workers + 5
	cfg := SweepConfig{
		Cells:      []Cell{{Tasks: 2, Ncom: 2, Wmin: 1}},
		Heuristics: []string{"mct"},
		Scenarios:  40,
		Trials:     1,
		Seed:       99,
		Workers:    workers,
	}
	var started atomic.Int64
	release := make(chan struct{})
	var once sync.Once
	whileStalled := int64(-1)
	cfg.Faults = &faultinject.Plan{Instance: func(chunk, trial int) error {
		if chunk == 0 {
			select {
			case <-release:
			case <-time.After(time.Second):
			}
			whileStalled = started.Load()
			return nil
		}
		if started.Add(1) > bound {
			once.Do(func() { close(release) })
		}
		return nil
	}}
	if _, err := RunSweep(cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d other chunks started while chunk 0 stalled", whileStalled)
	if whileStalled > bound {
		t.Fatalf("%d chunks started while chunk 0 stalled the commit, want <= %d", whileStalled, bound)
	}
}

// TestAbortReturnsLowestFailingChunk pins that a worker abort is
// deterministic: chunks 1 and 4 both fail, chunk 4 first, and the sweep
// still returns chunk 1's error with a final checkpoint that covers chunk 0.
func TestAbortReturnsLowestFailingChunk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "abort.ckpt")
	cfg := resumeTestConfig()
	cfg.Workers = 2
	cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 1}
	fired := make(chan struct{})
	var once sync.Once
	cfg.Faults = &faultinject.Plan{Instance: func(chunk, trial int) error {
		switch chunk {
		case 1:
			select {
			case <-fired:
			case <-time.After(10 * time.Second):
			}
			return errors.New("chunk 1 fault")
		case 4:
			once.Do(func() { close(fired) })
			return errors.New("chunk 4 fault")
		}
		return nil
	}}
	_, err := RunSweep(cfg)
	if err == nil || !strings.Contains(err.Error(), "chunk 1 fault") {
		t.Fatalf("RunSweep = %v, want chunk 1's error", err)
	}
	snap, ckErr := checkpoint.Load(path)
	if ckErr != nil {
		t.Fatalf("no usable checkpoint after abort: %v", ckErr)
	}
	if snap.NextChunk != 1 {
		t.Fatalf("abort checkpoint watermark %d, want 1", snap.NextChunk)
	}
}
