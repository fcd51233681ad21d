package rollout

import (
	"fmt"
	"time"

	"repro/internal/abtest"
	"repro/internal/daemon"
)

// CheckpointVersion guards the on-disk rollout checkpoint schema; bump it
// whenever the Checkpoint field set changes (wirecompat enforces this via
// internal/lint/wire.lock).
const CheckpointVersion = 1

// Checkpoint is the controller's complete durable state: the state machine
// position, the last-seen estimator totals (so increments keep folding
// correctly across a restart), the sequential monitor, and the decision
// history. Restoring it reproduces the controller exactly — the resumed
// /status renders byte-identical to an uninterrupted run under the same
// clock.
type Checkpoint struct {
	Version   int    `json:"version"`
	Candidate string `json:"candidate"`
	Baseline  string `json:"baseline"`
	Stage     Stage  `json:"stage"`
	ShareIdx  int    `json:"share_idx"`
	Polls     int64  `json:"polls"`
	GateSeq   int64  `json:"gate_seq"`
	// StageEnteredPoll / StageEnteredN anchor the per-stage sample floor.
	StageEnteredPoll int64 `json:"stage_entered_poll"`
	StageEnteredN    int64 `json:"stage_entered_n"`
	// LastProgressUnixMilli is the injected-clock time of the last
	// candidate-count growth, for the staleness guard.
	LastProgressUnixMilli int64 `json:"last_progress_unix_milli"`
	// Last-seen per-arm estimator totals (for increment folding).
	CandN     int64   `json:"cand_n"`
	CandSum   float64 `json:"cand_sum"`
	CandSumSq float64 `json:"cand_sum_sq"`
	BaseN     int64   `json:"base_n"`
	BaseSum   float64 `json:"base_sum"`
	BaseSumSq float64 `json:"base_sum_sq"`
	// Sequential is the anytime monitor's full state.
	Sequential  abtest.SequentialState `json:"sequential"`
	Gates       []GateDecision         `json:"gates"`
	Transitions []StageTransition      `json:"transitions"`
}

// snapshotLocked captures the checkpoint payload under c.mu.
func (c *Controller) snapshotLocked() Checkpoint {
	return Checkpoint{
		Version:               CheckpointVersion,
		Candidate:             c.cfg.Candidate,
		Baseline:              c.cfg.Baseline,
		Stage:                 c.stage,
		ShareIdx:              c.shareIdx,
		Polls:                 c.polls,
		GateSeq:               c.gateSeq,
		StageEnteredPoll:      c.stageEnteredPoll,
		StageEnteredN:         c.stageEnteredN,
		LastProgressUnixMilli: timeToMS(c.lastProgress),
		CandN:                 c.lastCand.N,
		CandSum:               c.lastCand.Sum,
		CandSumSq:             c.lastCand.SumSq,
		BaseN:                 c.lastBase.N,
		BaseSum:               c.lastBase.Sum,
		BaseSumSq:             c.lastBase.SumSq,
		Sequential:            c.seq.State(),
		Gates:                 append([]GateDecision(nil), c.gates...),
		Transitions:           append([]StageTransition(nil), c.transitions...),
	}
}

// Checkpoint persists the controller state atomically (daemon.SaveJSON): a
// crash mid-write leaves the previous checkpoint intact.
func (c *Controller) Checkpoint() error {
	path := c.cfg.CheckpointPath
	if path == "" {
		return fmt.Errorf("rollout: checkpointing disabled")
	}
	c.mu.Lock()
	ck := c.snapshotLocked()
	c.mu.Unlock()
	if err := daemon.SaveJSON(path, &ck); err != nil {
		return fmt.Errorf("rollout: checkpoint: %w", err)
	}
	return nil
}

// timeToMS maps the zero time to 0 so msToTime can invert it exactly.
func timeToMS(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixMilli()
}

// msToTime inverts timeToMS, preserving the zero value (a controller
// checkpointed before its first Start has no progress timestamp yet).
func msToTime(ms int64) time.Time {
	if ms == 0 {
		return time.Time{}
	}
	return time.UnixMilli(ms).UTC()
}

// loadCheckpointLocked restores state from cfg.CheckpointPath. Corrupt or
// mismatched checkpoints are rejected with the path in the error — a
// controller that silently started a rollout from scratch could re-promote
// a candidate that was just rolled back.
func (c *Controller) loadCheckpointLocked() (string, error) {
	path := c.cfg.CheckpointPath
	var ck Checkpoint
	if err := daemon.LoadJSON(path, CheckpointVersion, &ck); err != nil {
		return "", err
	}
	if ck.Candidate != c.cfg.Candidate || ck.Baseline != c.cfg.Baseline {
		return "", fmt.Errorf("checkpoint %s tracks %s vs %s, config wants %s vs %s",
			path, ck.Candidate, ck.Baseline, c.cfg.Candidate, c.cfg.Baseline)
	}
	switch ck.Stage {
	case StageShadow, StageFull, StageRolledBack:
	case StageCanary:
		if ck.ShareIdx < 0 || ck.ShareIdx >= len(c.cfg.CanaryShares) {
			return "", fmt.Errorf("checkpoint %s canary index %d out of range (shares %v)",
				path, ck.ShareIdx, c.cfg.CanaryShares)
		}
	default:
		return "", fmt.Errorf("checkpoint %s has unknown stage %q", path, ck.Stage)
	}
	seq, err := abtest.RestoreSequential(ck.Sequential)
	if err != nil {
		return "", fmt.Errorf("checkpoint %s: %w", path, err)
	}
	c.stage = ck.Stage
	c.shareIdx = ck.ShareIdx
	c.polls = ck.Polls
	c.gateSeq = ck.GateSeq
	c.stageEnteredPoll = ck.StageEnteredPoll
	c.stageEnteredN = ck.StageEnteredN
	c.lastProgress = msToTime(ck.LastProgressUnixMilli)
	c.lastCand = armTotals{N: ck.CandN, Sum: ck.CandSum, SumSq: ck.CandSumSq}
	c.lastBase = armTotals{N: ck.BaseN, Sum: ck.BaseSum, SumSq: ck.BaseSumSq}
	c.seq = seq
	c.gates = append([]GateDecision(nil), ck.Gates...)
	c.transitions = append([]StageTransition(nil), ck.Transitions...)
	c.met.setStage(c.stage, c.share())
	return fmt.Sprintf("stage=%s share=%g polls=%d", c.stage, c.share(), c.polls), nil
}
