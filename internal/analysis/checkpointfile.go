package analysis

import (
	"bytes"
	"errors"
	"fmt"
	iofs "io/fs"

	"telcolens/internal/faultfs"
	"telcolens/internal/simulate"
)

// File-backed checkpoints: the durable form of the incremental-refresh
// state. telcoserve persists one after every refresh so a restart
// resumes from the last merged manifest generation instead of a cold
// full scan; library callers (telcolens.ResumeAnalyzerFile) use them to
// hand state between runs. Saves go through the atomic-publish discipline (stage + fsync
// + rename + dir fsync), so the file on disk is always a complete,
// checksummed checkpoint — a crashed save leaves the previous one.

// SaveCheckpointFile serializes the analyzer's checkpoint and publishes
// it atomically at path. The fsys seam (nil = OS) lets fault-injection
// tests provoke every failure mode of the save; any error leaves the
// previous checkpoint file intact.
func SaveCheckpointFile(fsys faultfs.FS, path string, a *Analyzer) error {
	var buf bytes.Buffer
	if err := a.Checkpoint(&buf); err != nil {
		return err
	}
	if err := faultfs.WriteFileAtomic(faultfs.Resolve(fsys), path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("analysis: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpointFile reads a checkpoint file. A missing file returns
// (nil, nil) — the caller cold-starts.
func LoadCheckpointFile(fsys faultfs.FS, path string) ([]byte, error) {
	data, err := faultfs.Resolve(fsys).ReadFile(path)
	if errors.Is(err, iofs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: reading checkpoint file: %w", err)
	}
	return data, nil
}

// ResumeAnalyzerFile restores an analyzer from a checkpoint file. A
// missing file, an unreadable one, or a corrupt or mismatched
// checkpoint (failed trailer checksum, different campaign identity or
// window) all fall back to a cold analyzer — a checkpoint is an
// accelerator, never a correctness dependency. The error return is
// reserved for the cold construction itself failing. resumed reports
// whether the checkpoint was actually used; callers Refresh either way
// to bring the state to the store's current coverage.
func ResumeAnalyzerFile(fsys faultfs.FS, path string, ds *simulate.Dataset, opts ...Option) (a *Analyzer, resumed bool, err error) {
	data, err := LoadCheckpointFile(fsys, path)
	if err == nil && data != nil {
		if warm, rerr := ResumeAnalyzer(ds, bytes.NewReader(data), opts...); rerr == nil {
			return warm, true, nil
		}
	}
	cold, err := New(ds, opts...)
	if err != nil {
		return nil, false, err
	}
	return cold, false, nil
}
