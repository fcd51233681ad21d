package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

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

// Checkpoint atomically persists the last-known snapshot of every shard:
// marshal to a temp file in the checkpoint's directory, fsync, then rename
// over the destination — a crash mid-write leaves the previous checkpoint
// intact (the same protocol as harvestd's own checkpoints).
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
	blob, err := json.MarshalIndent(&ck, "", " ")
	if err != nil {
		return fmt.Errorf("fleet: encoding checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("fleet: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("fleet: writing checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return fmt.Errorf("fleet: syncing checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("fleet: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("fleet: publishing checkpoint: %w", err)
	}
	a.checkpoints.Add(1)
	return nil
}

// loadCheckpoint restores per-shard snapshots for shards still in the
// configured fleet (membership may shrink across restarts; unknown shards
// are ignored), returning how many were restored. A missing file returns
// os.ErrNotExist (the caller treats it as a cold start).
func (a *Aggregator) loadCheckpoint() (int, error) {
	blob, err := os.ReadFile(a.cfg.CheckpointPath)
	if err != nil {
		return 0, err
	}
	var ck checkpointFile
	if err := json.Unmarshal(blob, &ck); err != nil {
		return 0, fmt.Errorf("fleet: corrupt checkpoint %s: %w", a.cfg.CheckpointPath, err)
	}
	if ck.Version != checkpointVersion {
		return 0, fmt.Errorf("fleet: checkpoint %s has version %d, want %d",
			a.cfg.CheckpointPath, ck.Version, checkpointVersion)
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

// isNotExist reports a missing-checkpoint error (cold start).
func isNotExist(err error) bool { return os.IsNotExist(err) }
