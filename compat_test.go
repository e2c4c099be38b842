package volatile

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// compatDir holds the on-disk compatibility corpus: one mid-sweep
// checkpoint per sweep flavour, written once by an earlier version of the
// code and never regenerated. A deliberate format change adds a fixture; it
// never rewrites one.
const compatDir = "testdata/compat"

// compatTraceFile is the recorded trace set (20 processors) the trace-file
// fixture and TestTraceSweepGolden replay.
const compatTraceFile = compatDir + "/trace-p20.volatrace"

// compatEntry is one manifest record: the checkpoint file, the config
// digest it is bound to, its committed watermark, and the digest the
// resumed sweep must reach.
type compatEntry struct {
	Name            string `json:"name"`
	Checkpoint      string `json:"checkpoint"`
	ConfigDigest    string `json:"config_digest"`
	CommittedChunks int    `json:"committed_chunks"`
	Chunks          int    `json:"chunks"`
	ResultDigest    string `json:"result_digest"`
}

func compatCells() []Cell {
	return []Cell{{Tasks: 5, Ncom: 5, Wmin: 1}, {Tasks: 8, Ncom: 4, Wmin: 2}, {Tasks: 12, Ncom: 6, Wmin: 3}}
}

// compatSweeps are the corpus sweeps, keyed by fixture name: one per digest
// flavour, and both time bases of the rigid sweep. Each is 3 cells × 2
// scenarios = 6 chunks of 2 trials.
func compatSweeps() map[string]SweepConfig {
	p8 := ScenarioOptions{Processors: 8, Iterations: 3}
	rigid := SweepConfig{Cells: compatCells(), Scenarios: 2, Trials: 2, Options: p8, Seed: 501}
	rigidEvent := rigid
	rigidEvent.Mode = ModeEvent
	return map[string]SweepConfig{
		"rigid-slot":  rigid,
		"rigid-event": rigidEvent,
		"trace-synthetic": {Cells: compatCells(),
			Heuristics: []string{"emct", "mct*", "random2w", "lw*"}, Scenarios: 2, Trials: 2,
			Trace:   &TraceSource{Style: TracePareto, Len: 150},
			Options: ScenarioOptions{Processors: 6, Iterations: 2}, Seed: 502},
		"trace-file": {Cells: compatCells(),
			Heuristics: []string{"emct*", "mct", "random1w"}, Scenarios: 2, Trials: 2,
			Trace:   &TraceSource{Files: []string{compatTraceFile}},
			Options: ScenarioOptions{Iterations: 2}, Seed: 503},
		"compare": {Cells: compatCells(),
			Heuristics: []string{"emct*", "mct", "random2w", BatchFCFS, BatchEASY}, Scenarios: 2, Trials: 2,
			Options: p8, Seed: 504},
		"batch": {Cells: compatCells(), Heuristics: BatchDisciplines(), Scenarios: 2, Trials: 2,
			Options: p8, Seed: 504},
		"moldable": {Cells: compatCells(), Heuristics: []string{"emct", "mct*", "random2w", "ud*"},
			Alloc: "maximum-iters", Scenarios: 2, Trials: 2, Options: p8, Seed: 505},
	}
}

func loadCompatManifest(t *testing.T) []compatEntry {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(compatDir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Fixtures []compatEntry `json:"fixtures"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m.Fixtures
}

// TestCompatCheckpointResume resumes every committed checkpoint with the
// current code. Each must still be bound to its sweep's config digest,
// resume from its recorded watermark (only the uncommitted instances run),
// and reach the recorded result digest.
func TestCompatCheckpointResume(t *testing.T) {
	sweeps := compatSweeps()
	fixtures := loadCompatManifest(t)
	if len(fixtures) != len(sweeps) {
		t.Fatalf("manifest lists %d fixtures, the corpus defines %d sweeps", len(fixtures), len(sweeps))
	}
	for _, fx := range fixtures {
		t.Run(fx.Name, func(t *testing.T) {
			cfg, ok := sweeps[fx.Name]
			if !ok {
				t.Fatalf("no corpus sweep for fixture %q", fx.Name)
			}
			digest, err := cfg.ConfigDigest()
			if err != nil {
				t.Fatal(err)
			}
			if digest != fx.ConfigDigest {
				t.Fatalf("config digest moved: %s, fixture was written for %s", digest, fx.ConfigDigest)
			}
			src := filepath.Join(compatDir, fx.Checkpoint)
			st, err := ReadCheckpoint(src)
			if err != nil {
				t.Fatal(err)
			}
			if st.ConfigDigest != fx.ConfigDigest || st.CommittedChunks != fx.CommittedChunks || st.Chunks != fx.Chunks {
				t.Fatalf("checkpoint header (%.12s…, %d/%d) disagrees with the manifest (%.12s…, %d/%d)",
					st.ConfigDigest, st.CommittedChunks, st.Chunks, fx.ConfigDigest, fx.CommittedChunks, fx.Chunks)
			}
			raw, err := os.ReadFile(src)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), fx.Checkpoint)
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			first, calls := -1, 0
			cfg.Progress = func(done, total int) {
				mu.Lock()
				defer mu.Unlock()
				if first < 0 || done < first {
					first = done
				}
				calls++
			}
			cfg.Checkpoint = &CheckpointConfig{Path: path, Resume: true}
			res, err := RunSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Digest(); got != fx.ResultDigest {
				t.Fatalf("resumed result digest %s, want %s", got, fx.ResultDigest)
			}
			perChunk := res.Instances / fx.Chunks
			if want := (fx.Chunks - fx.CommittedChunks) * perChunk; calls != want || first != fx.CommittedChunks*perChunk+1 {
				t.Fatalf("resume ran %d instances starting at %d, want %d starting at %d",
					calls, first, want, fx.CommittedChunks*perChunk+1)
			}
		})
	}
}
