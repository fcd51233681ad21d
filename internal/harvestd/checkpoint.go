package harvestd

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// checkpointVersion guards the on-disk schema.
const checkpointVersion = 1

// checkpointFile is the daemon's durable state: every policy's merged
// accumulator plus the stream counters, so a restarted daemon reports
// continuous metrics and identical estimates (n, mean, intervals).
type checkpointFile struct {
	Version     int              `json:"version"`
	SavedAt     time.Time        `json:"saved_at"`
	Lines       int64            `json:"lines"`
	ParseErrors int64            `json:"parse_errors"`
	Rejected    int64            `json:"rejected"`
	Ingested    int64            `json:"ingested"`
	Folded      int64            `json:"folded"`
	Policies    map[string]Accum `json:"policies"`
}

// Checkpoint atomically persists the current estimator state: marshal to a
// temp file in the checkpoint's directory, fsync, then rename over the
// destination — a crash mid-write leaves the previous checkpoint intact.
func (d *Daemon) Checkpoint() error {
	path := d.cfg.CheckpointPath
	if path == "" {
		return fmt.Errorf("harvestd: checkpointing disabled")
	}
	ck := checkpointFile{
		Version:     checkpointVersion,
		SavedAt:     d.cfg.Clock.Now().UTC(),
		Lines:       d.ctr.lines.Load(),
		ParseErrors: d.ctr.parseErrors.Load(),
		Rejected:    d.ctr.rejected.Load(),
		Ingested:    d.ctr.ingested.Load(),
		Folded:      d.ctr.folded.Load(),
		Policies:    d.reg.exportState(),
	}
	blob, err := json.MarshalIndent(&ck, "", " ")
	if err != nil {
		return fmt.Errorf("harvestd: encoding checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("harvestd: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("harvestd: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("harvestd: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("harvestd: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("harvestd: publishing checkpoint: %w", err)
	}
	d.ctr.checkpoints.Add(1)
	d.cfg.Tracer.Event("checkpoint", d.root, map[string]any{"folded": ck.Folded})
	return nil
}

// loadCheckpoint restores estimator state and counters from the checkpoint
// file, returning how many policies were restored. A missing file returns
// os.ErrNotExist (the caller treats it as a cold start).
func (d *Daemon) loadCheckpoint() (int, error) {
	blob, err := os.ReadFile(d.cfg.CheckpointPath)
	if err != nil {
		return 0, err
	}
	var ck checkpointFile
	if err := json.Unmarshal(blob, &ck); err != nil {
		return 0, fmt.Errorf("harvestd: corrupt checkpoint %s: %w", d.cfg.CheckpointPath, err)
	}
	if ck.Version != checkpointVersion {
		return 0, fmt.Errorf("harvestd: checkpoint %s has version %d, want %d",
			d.cfg.CheckpointPath, ck.Version, checkpointVersion)
	}
	restored := d.reg.restoreState(ck.Policies)
	d.ctr.lines.Store(ck.Lines)
	d.ctr.parseErrors.Store(ck.ParseErrors)
	d.ctr.rejected.Store(ck.Rejected)
	d.ctr.ingested.Store(ck.Ingested)
	d.ctr.folded.Store(ck.Folded)
	return restored, nil
}
