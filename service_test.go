package volatile

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// TestNegativeCheckpointEveryRejected pins the PR 9 bugfix: a negative
// cadence used to fall through the `Every > 0` guard and silently run with
// the default interval; now every sweep flavour rejects it up front.
func TestNegativeCheckpointEveryRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.ckpt")
	for name, cfg := range compatSweeps() {
		cfg.Checkpoint = &CheckpointConfig{Path: path, Every: -3}
		if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "Every must be >= 0") {
			t.Fatalf("%s: RunSweep with Every=-3 returned %v, want the negative-cadence error", name, err)
		}
	}
}

// TestConfigDigestMatchesCheckpointBinding pins the service cache-key
// contract for every sweep of the compat corpus, grouped by digest
// flavour: ConfigDigest computes, without running anything, exactly the
// digest the checkpoint layer stamps into the file — so a result cache
// keyed on ConfigDigest is coherent with resume.
func TestConfigDigestMatchesCheckpointBinding(t *testing.T) {
	sweeps := compatSweeps()
	flavours := map[string][]string{
		"runsweep":     {"rigid-slot", "rigid-event"},
		"tracesweep":   {"trace-synthetic", "trace-file"},
		"comparesweep": {"compare", "batch"},
		"moldable":     {"moldable"},
	}
	covered := 0
	for flavour, names := range flavours {
		covered += len(names)
		t.Run(flavour, func(t *testing.T) {
			for _, name := range names {
				t.Run(name, func(t *testing.T) {
					cfg := sweeps[name]
					want, err := cfg.ConfigDigest()
					if err != nil {
						t.Fatal(err)
					}
					path := filepath.Join(t.TempDir(), "sweep.ckpt")
					cfg.Checkpoint = &CheckpointConfig{Path: path}
					if _, err := RunSweep(cfg); err != nil {
						t.Fatal(err)
					}
					st, err := ReadCheckpoint(path)
					if err != nil {
						t.Fatal(err)
					}
					if st.ConfigDigest != want {
						t.Fatalf("checkpoint bound to %s, ConfigDigest says %s", st.ConfigDigest, want)
					}
				})
			}
		})
	}
	if covered != len(sweeps) {
		t.Fatalf("flavour table covers %d of the corpus's %d sweeps", covered, len(sweeps))
	}
}

// TestConfigDigestRejectsWhatRunSweepRejects pins that the content address
// and the sweep accept the same configs: a service keying its cache on
// ConfigDigest must never admit a job RunSweep cannot run. Both must fail,
// with the same message, before any instance runs.
func TestConfigDigestRejectsWhatRunSweepRejects(t *testing.T) {
	cases := map[string]func(cfg *SweepConfig){
		"negative processors": func(cfg *SweepConfig) { cfg.Options.Processors = -3 },
		"negative max slots":  func(cfg *SweepConfig) { cfg.Options.MaxSlots = -1 },
		"no cells":            func(cfg *SweepConfig) { cfg.Cells = nil },
		// Wmin <= 0 used to panic in RunSweep's scenario generation; Tasks
		// or Ncom <= 0 passed ConfigDigest and failed per instance mid-sweep.
		"zero tasks":        func(cfg *SweepConfig) { cfg.Cells = append(cfg.Cells, Cell{Tasks: 0, Ncom: 5, Wmin: 1}) },
		"negative ncom":     func(cfg *SweepConfig) { cfg.Cells = append(cfg.Cells, Cell{Tasks: 10, Ncom: -1, Wmin: 1}) },
		"zero wmin":         func(cfg *SweepConfig) { cfg.Cells = append(cfg.Cells, Cell{Tasks: 10, Ncom: 5, Wmin: 0}) },
		"zero trials":       func(cfg *SweepConfig) { cfg.Trials = 0 },
		"unknown contender": func(cfg *SweepConfig) { cfg.Heuristics = []string{"emct", "batch-sjf"} },
		"bad alloc spec":    func(cfg *SweepConfig) { cfg.Alloc = "split-into:0" },
		"unknown alloc":     func(cfg *SweepConfig) { cfg.Alloc = "zipf" },
		"trace + alloc": func(cfg *SweepConfig) {
			cfg.Trace, cfg.Alloc = &TraceSource{Len: 100}, "maximum-iters"
		},
		"trace + batch": func(cfg *SweepConfig) {
			cfg.Trace, cfg.Heuristics = &TraceSource{Len: 100}, []string{"emct", BatchEASY}
		},
		"alloc + batch": func(cfg *SweepConfig) {
			cfg.Alloc, cfg.Heuristics = "fixed", []string{BatchFCFS}
		},
		"trace too short":   func(cfg *SweepConfig) { cfg.Trace = &TraceSource{Len: 1} },
		"missing tracefile": func(cfg *SweepConfig) { cfg.Trace = &TraceSource{Files: []string{"testdata/no-such.volatrace"}} },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := resumeTestConfig()
			mutate(&cfg)
			_, derr := cfg.ConfigDigest()
			_, rerr := RunSweep(cfg)
			if derr == nil || rerr == nil {
				t.Fatalf("ConfigDigest error %v, RunSweep error %v: want both to fail", derr, rerr)
			}
			if derr.Error() != rerr.Error() {
				t.Fatalf("ConfigDigest and RunSweep disagree:\n digest: %v\n run:    %v", derr, rerr)
			}
		})
	}
}

// TestReadCheckpointPartialIsBitExact pins the partial-aggregate contract:
// a checkpoint written at completion restores to a SweepResult that formats
// (and therefore digests) identically to the result the sweep returned, and
// its progress counters report the full chunk range.
func TestReadCheckpointPartialIsBitExact(t *testing.T) {
	cfg := resumeTestConfig()
	path := filepath.Join(t.TempDir(), "done.ckpt")
	cfg.Checkpoint = &CheckpointConfig{Path: path}
	res, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommittedChunks != st.Chunks || st.Chunks != len(cfg.Cells)*cfg.Scenarios {
		t.Fatalf("completed checkpoint reports %d/%d chunks, want %d/%d",
			st.CommittedChunks, st.Chunks, len(cfg.Cells)*cfg.Scenarios, len(cfg.Cells)*cfg.Scenarios)
	}
	if st.Partial.Instances != res.Instances {
		t.Fatalf("Partial.Instances = %d, want %d", st.Partial.Instances, res.Instances)
	}
	if st.Partial.Digest() != res.Digest() {
		t.Fatalf("completed-checkpoint partial drifted from the returned result:\n got  %s\n want %s",
			st.Partial.Digest(), res.Digest())
	}
}

// TestReadCheckpointMidSweep pins the streaming view: a checkpoint captured
// mid-sweep restores a strict-prefix partial whose instance count matches
// the committed chunks.
func TestReadCheckpointMidSweep(t *testing.T) {
	cfg := resumeTestConfig()
	path := filepath.Join(t.TempDir(), "mid.ckpt")
	cfg.Workers = 1
	cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 1}

	stop := make(chan struct{})
	closed := false
	cfg.Stop = stop
	cfg.Progress = func(done, total int) {
		if !closed && done >= total/2 {
			closed = true
			close(stop)
		}
	}
	if _, err := RunSweep(cfg); err == nil {
		t.Fatal("stopped sweep returned no error")
	}

	st, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommittedChunks <= 0 || st.CommittedChunks >= st.Chunks {
		t.Fatalf("mid-sweep checkpoint covers %d/%d chunks, want a strict prefix", st.CommittedChunks, st.Chunks)
	}
	// Each chunk is one (cell, scenario) pair = Trials instances.
	if want := st.CommittedChunks * cfg.Trials; st.Partial.Instances != want {
		t.Fatalf("Partial.Instances = %d, want %d (%d chunks x %d trials)",
			st.Partial.Instances, want, st.CommittedChunks, cfg.Trials)
	}
	if len(st.Partial.Overall) == 0 {
		t.Fatal("mid-sweep partial has no Overall rows")
	}
}

// TestOnSaveMatchesReadCheckpoint pins the checkpoint hook against the file
// reader on both clocks: at every successful write OnSave reports exactly
// what ReadCheckpoint reads back from the file just written, bit for bit,
// and an injected write failure yields a warning and no call.
func TestOnSaveMatchesReadCheckpoint(t *testing.T) {
	for _, mode := range []Mode{ModeSlot, ModeEvent} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := resumeTestConfig()
			cfg.Mode = mode
			chunks := len(cfg.Cells) * cfg.Scenarios
			path := filepath.Join(t.TempDir(), "hook.ckpt")
			// Writes 0..chunks-1 follow each chunk; write chunks is the
			// final one at the same watermark. Write 2 (watermark 3) fails.
			cfg.Faults = &faultinject.Plan{Checkpoint: faultinject.CheckpointFailures(2)}
			var got []int
			var last *CheckpointStatus
			cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 1, OnSave: func(st *CheckpointStatus) {
				disk, err := ReadCheckpoint(path)
				if err != nil {
					t.Fatalf("OnSave at %d: %v", st.CommittedChunks, err)
				}
				if st.ConfigDigest != disk.ConfigDigest || st.CommittedChunks != disk.CommittedChunks || st.Chunks != disk.Chunks {
					t.Fatalf("OnSave reports %s %d/%d, file holds %s %d/%d", st.ConfigDigest, st.CommittedChunks, st.Chunks,
						disk.ConfigDigest, disk.CommittedChunks, disk.Chunks)
				}
				if st.Partial.Digest() != disk.Partial.Digest() || st.Partial.FailedInstances != disk.Partial.FailedInstances {
					t.Fatalf("OnSave partial at %d differs from the file's", st.CommittedChunks)
				}
				got = append(got, st.CommittedChunks)
				last = st
			}}
			res, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for k := 1; k <= chunks; k++ {
				if k != 3 {
					want = append(want, k)
				}
			}
			want = append(want, chunks)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("OnSave watermarks %v, want %v", got, want)
			}
			if len(res.Warnings) != 1 || !strings.Contains(res.Warnings[0], fmt.Sprintf("checkpoint write %s failed", path)) {
				t.Fatalf("warnings %q, want the one failed write", res.Warnings)
			}
			if last.Partial.Digest() != res.Digest() {
				t.Fatal("final OnSave partial differs from the returned result")
			}
		})
	}
}
