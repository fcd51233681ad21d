package harvestd

import (
	"fmt"
	"time"

	"repro/internal/daemon"
)

// checkpointVersion guards the on-disk schema. Version 2 made the file a
// StateSnapshot; a file of another version fails startup.
const checkpointVersion = 2

// checkpointFile is the daemon's durable state: the snapshot it serves at
// /snapshot (Seq aside), so a restarted daemon reports continuous counters
// and identical estimates (n, mean, intervals).
type checkpointFile struct {
	Version  int           `json:"version"`
	SavedAt  time.Time     `json:"saved_at"`
	Snapshot StateSnapshot `json:"snapshot"`
}

// Checkpoint persists the current estimator state atomically
// (daemon.SaveJSON): a crash mid-write leaves the previous checkpoint intact.
func (d *Daemon) Checkpoint() error {
	path := d.cfg.CheckpointPath
	if path == "" {
		return fmt.Errorf("harvestd: checkpointing disabled")
	}
	ck := checkpointFile{
		Version:  checkpointVersion,
		SavedAt:  d.cfg.Clock.Now().UTC(),
		Snapshot: d.snapshot(nil),
	}
	if err := daemon.SaveJSON(path, &ck); err != nil {
		return fmt.Errorf("harvestd: checkpoint: %w", err)
	}
	d.ctr.checkpoints.Add(1)
	d.cfg.Tracer.Event("checkpoint", d.root, map[string]any{"folded": ck.Snapshot.Counters.Folded})
	return nil
}

// loadCheckpoint restores estimator state and counters from the checkpoint
// file and says how many policies it restored. A missing file is an
// fs.ErrNotExist (a cold start). A snapshot that fails Validate, or that
// was folded under another clip or propensity floor than the registry's —
// its clipped sums and floor hits would mix two caps into every estimate —
// refuses the checkpoint.
func (d *Daemon) loadCheckpoint() (string, error) {
	path := d.cfg.CheckpointPath
	var ck checkpointFile
	if err := daemon.LoadJSON(path, checkpointVersion, &ck); err != nil {
		return "", err
	}
	s := &ck.Snapshot
	if err := s.Validate(); err != nil {
		return "", fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if clip, floor := d.reg.Clip(), d.reg.PropensityFloor(); s.Clip != clip || s.Floor != floor {
		return "", fmt.Errorf("checkpoint %s was folded under clip %g and floor %g, not this daemon's clip %g and floor %g",
			path, s.Clip, s.Floor, clip, floor)
	}
	restored := d.reg.restoreState(s.Policies)
	d.reg.evalPanics.Store(s.EvalPanics)
	d.ctr.lines.Store(s.Counters.Lines)
	d.ctr.parseErrors.Store(s.Counters.ParseErrors)
	d.ctr.rejected.Store(s.Counters.Rejected)
	d.ctr.ingested.Store(s.Counters.Ingested)
	d.ctr.folded.Store(s.Counters.Folded)
	return fmt.Sprintf("%d policies", restored), nil
}
