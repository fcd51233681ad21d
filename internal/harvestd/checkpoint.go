package harvestd

import (
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/internal/ope"
)

// checkpointVersion guards the on-disk schema.
const checkpointVersion = 1

// checkpointFile is the daemon's durable state: every policy's merged
// accumulator plus the stream counters, so a restarted daemon reports
// continuous metrics and identical estimates (n, mean, intervals).
type checkpointFile struct {
	Version     int                  `json:"version"`
	SavedAt     time.Time            `json:"saved_at"`
	Lines       int64                `json:"lines"`
	ParseErrors int64                `json:"parse_errors"`
	Rejected    int64                `json:"rejected"`
	Ingested    int64                `json:"ingested"`
	Folded      int64                `json:"folded"`
	Policies    map[string]ope.Accum `json:"policies"`
}

// Checkpoint persists the current estimator state atomically
// (daemon.SaveJSON): a crash mid-write leaves the previous checkpoint intact.
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
	if err := daemon.SaveJSON(path, &ck); err != nil {
		return fmt.Errorf("harvestd: checkpoint: %w", err)
	}
	d.ctr.checkpoints.Add(1)
	d.cfg.Tracer.Event("checkpoint", d.root, map[string]any{"folded": ck.Folded})
	return nil
}

// loadCheckpoint restores estimator state and counters from the checkpoint
// file and says how many policies it restored. A missing file is an
// fs.ErrNotExist (a cold start); policy state a snapshot would be refused
// for refuses the checkpoint too.
func (d *Daemon) loadCheckpoint() (string, error) {
	var ck checkpointFile
	if err := daemon.LoadJSON(d.cfg.CheckpointPath, checkpointVersion, &ck); err != nil {
		return "", err
	}
	if err := validatePolicies(ck.Policies); err != nil {
		return "", fmt.Errorf("checkpoint %s: %w", d.cfg.CheckpointPath, err)
	}
	restored := d.reg.restoreState(ck.Policies)
	d.ctr.lines.Store(ck.Lines)
	d.ctr.parseErrors.Store(ck.ParseErrors)
	d.ctr.rejected.Store(ck.Rejected)
	d.ctr.ingested.Store(ck.Ingested)
	d.ctr.folded.Store(ck.Folded)
	return fmt.Sprintf("%d policies", restored), nil
}
