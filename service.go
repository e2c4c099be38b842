package volatile

// Service surface for long-running frontends (cmd/volaserved): exported
// content addresses for sweep configs and the committed view of a
// checkpoint, so a server can key a result cache on exactly the digest the
// checkpoint layer binds resumes to, and can report partial aggregates
// while a job is still running (CheckpointConfig.OnSave hands them over at
// each write; ReadCheckpoint reads them back from a file).

import (
	"fmt"

	"repro/internal/checkpoint"
)

// ConfigDigest returns the sweep's canonical content address: the SHA-256
// digest of everything that determines its numeric output (flavour, cells,
// resolved contenders, scenario/trial counts, options, mode, seed, and the
// trace source or allocation policy).
// Execution knobs that cannot change the result — Workers, Progress,
// checkpoint placement, the ContinueOnError failure policy, fault plans —
// are excluded, so equal digests mean equal results regardless of how the
// sweep is executed. It is the same digest checkpoints are bound to: a
// content-addressed result cache keyed on it is automatically coherent with
// crash/resume. It rejects exactly the configs RunSweep rejects, with the
// same error.
func (cfg SweepConfig) ConfigDigest() (string, error) {
	plan, err := cfg.plan()
	if err != nil {
		return "", err
	}
	return plan.digest, nil
}

// CheckpointStatus is the read-only view of a sweep checkpoint file: which
// sweep it belongs to, how far the committer got, and the aggregates it had
// committed — a bit-exact partial SweepResult.
type CheckpointStatus struct {
	// ConfigDigest identifies the sweep the checkpoint was taken for
	// (compare against ConfigDigest of the config).
	ConfigDigest string
	// CommittedChunks and Chunks report progress: chunks [0, CommittedChunks)
	// of Chunks are covered by Partial.
	CommittedChunks, Chunks int
	// Partial holds the committed aggregates as a SweepResult. Its rows are
	// restored bit-exactly, so a checkpoint written at completion formats
	// (and digests) identically to the result the sweep returned.
	Partial *SweepResult
}

// ReadCheckpoint loads a sweep checkpoint file without resuming it, for
// inspecting a sweep from outside the process that wrote it. The file is
// validated (version, checksum) exactly as a resume would.
func ReadCheckpoint(path string) (*CheckpointStatus, error) {
	snap, err := checkpoint.Load(path)
	if err != nil {
		return nil, err
	}
	var agg sweepAggregates
	if err := agg.restore(snap); err != nil {
		return nil, fmt.Errorf("volatile: checkpoint %s: %w", path, err)
	}
	return &CheckpointStatus{
		ConfigDigest:    snap.ConfigDigest,
		CommittedChunks: snap.NextChunk,
		Chunks:          snap.Chunks,
		Partial:         agg.result(),
	}, nil
}
