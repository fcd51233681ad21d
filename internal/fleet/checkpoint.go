package fleet

import (
	"fmt"
	"time"

	"repro/internal/daemon"
	"repro/internal/harvestd"
)

// checkpointVersion guards the aggregator's on-disk schema.
const checkpointVersion = 1

// shardCheckpoint is one shard's persisted pull state: the last snapshot it
// delivered and when. Persisting LastSuccess (not just the snapshot) makes
// staleness survive a restart: an aggregator that resumes from an old
// checkpoint correctly treats long-dead shards as stale instead of serving
// their fossilized state as fresh.
type shardCheckpoint struct {
	Snapshot        *harvestd.StateSnapshot `json:"snapshot"`
	LastSuccessUnix int64                   `json:"last_success_unix_nano"`
}

// checkpointFile is the aggregator's durable state.
type checkpointFile struct {
	Version int                        `json:"version"`
	SavedAt time.Time                  `json:"saved_at"`
	Shards  map[string]shardCheckpoint `json:"shards"`
}

// Checkpoint persists the last-known snapshot of every shard atomically
// (daemon.SaveJSON): a crash mid-write leaves the previous checkpoint intact.
func (a *Aggregator) Checkpoint() error {
	path := a.cfg.CheckpointPath
	if path == "" {
		return fmt.Errorf("fleet: checkpointing disabled")
	}
	ck := checkpointFile{
		Version: checkpointVersion,
		SavedAt: a.cfg.Clock.Now().UTC(),
		Shards:  make(map[string]shardCheckpoint, len(a.shards)),
	}
	for _, st := range a.shards {
		st.mu.Lock()
		snap := st.snap
		last := st.lastSuccess
		st.mu.Unlock()
		if snap == nil {
			continue
		}
		ck.Shards[st.shard.Name] = shardCheckpoint{
			Snapshot:        snap,
			LastSuccessUnix: last.UnixNano(),
		}
	}
	if err := daemon.SaveJSON(path, &ck); err != nil {
		return fmt.Errorf("fleet: checkpoint: %w", err)
	}
	a.checkpoints.Add(1)
	return nil
}

// loadCheckpoint restores per-shard snapshots for shards still in the
// configured fleet (membership may shrink across restarts; unknown shards
// are ignored), returning how many were restored. A missing file is an
// fs.ErrNotExist (the caller treats it as a cold start).
func (a *Aggregator) loadCheckpoint() (int, error) {
	var ck checkpointFile
	if err := daemon.LoadJSON(a.cfg.CheckpointPath, checkpointVersion, &ck); err != nil {
		return 0, err
	}
	restored := 0
	for _, st := range a.shards {
		sc, ok := ck.Shards[st.shard.Name]
		if !ok || sc.Snapshot == nil {
			continue
		}
		if err := sc.Snapshot.Validate(); err != nil {
			return 0, fmt.Errorf("fleet: checkpoint shard %q: %w", st.shard.Name, err)
		}
		st.mu.Lock()
		st.snap = sc.Snapshot
		st.lastSuccess = time.Unix(0, sc.LastSuccessUnix)
		st.mu.Unlock()
		restored++
	}
	return restored, nil
}
