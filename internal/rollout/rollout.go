// Package rollout closes the paper's loop: it turns harvestd's
// counterfactual estimates into guarded, automatic production policy
// changes — the SAYER step that follows "Harvesting Randomness" (deploy
// the policy the off-policy estimates picked, behind guardrails).
//
// A Controller watches one candidate policy against an incumbent baseline
// on a harvestd (or harvestagg) /evidence surface — one request per step,
// with estimates, diagnostics and watermark from one read — and drives the
// candidate through a staged state machine:
//
//	shadow ──▶ canary[0] ──▶ … ──▶ canary[k-1] ──▶ full
//	   │           │                    │            │
//	   └───────────┴───── rollback ─────┴────────────┘
//
// In shadow the candidate receives no traffic (share 0) and is evaluated
// purely counterfactually from the incumbent's harvested randomness — the
// paper's core claim that exploration data already collected evaluates the
// candidate at 100%. Each canary stage deploys the candidate on an epsilon
// of traffic via a policy blend; full deploys it everywhere. Every
// promotion is gated on two independent statistical tests:
//
//   - empirical-Bernstein interval separation (ope.HighConfidenceInterval,
//     the Thomas-et-al high-confidence OPE bound §5 points at), and
//   - the anytime-valid sequential monitor (abtest.Sequential in
//     empirical-Bernstein mode), fed batch increments of the same
//     estimator sums so it sees exactly the per-datapoint stream.
//
// Estimator-health collapse (ESS floor, clip-fraction ceiling, staleness)
// or a statistically confirmed regression triggers automatic rollback from
// any stage. Every evaluation emits a machine-readable GateDecision, so an
// auditor (or CI) can replay exactly why each promotion happened — the
// GrowthHacker-style decision record.
//
// All time flows through an injected obs.Clock and all inputs arrive
// through the HarvestClient interface, so the whole control loop is
// deterministic under test: the same scripted estimate sequence always
// yields byte-identical gate history, independent of wall time and of the
// harvesting daemon's worker count.
package rollout

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/abtest"
	"repro/internal/daemon"
	"repro/internal/obs"
)

// Stage is one state of the rollout state machine.
type Stage string

// The rollout stages. RolledBack is terminal; Full is monitored forever
// (a regression at full exposure still rolls back).
const (
	StageShadow     Stage = "shadow"
	StageCanary     Stage = "canary"
	StageFull       Stage = "full"
	StageRolledBack Stage = "rolledback"
)

// Objective orients the gates: whether a larger estimated value is better
// (paper-style rewards) or worse (latencies, error rates).
type Objective string

// The two gate orientations.
const (
	Maximize Objective = "max"
	Minimize Objective = "min"
)

// Config tunes a Controller.
type Config struct {
	// Candidate and Baseline name the two policies on the harvest surface.
	Candidate, Baseline string
	// Objective orients comparisons; default Maximize.
	Objective Objective
	// Estimator selects which served estimator gates read: "clipped_ips"
	// (default; bounded terms keep the EB intervals honest) or "ips".
	Estimator string
	// Delta is the per-gate interval failure probability. Default 0.05.
	Delta float64
	// CanaryShares is the epsilon ramp, strictly increasing in (0, 1).
	// Default {0.01, 0.05, 0.25}.
	CanaryShares []float64
	// MinStageSamples is the minimum number of new candidate datapoints a
	// stage must observe before it may promote. Default 200.
	MinStageSamples int64
	// TermLo/TermHi bound the per-datapoint estimator terms (importance
	// weight × reward; for clipped IPS, at most clip × max reward). They
	// feed the sequential monitor's validity range and the Hoeffding side
	// of the EB interval. TermLo must be ≥ 0. Default [0, 1].
	TermLo, TermHi float64
	// ESSFloor rolls back when the candidate's effective-sample-size
	// fraction drops below it. Default 0.05; negative disables.
	ESSFloor float64
	// ClipCeiling rolls back when the candidate's clip fraction exceeds
	// it. Default 0.25; <= 0 disables (set 1 to keep the check trivially
	// green).
	ClipCeiling float64
	// StaleAfter rolls back when no new candidate samples arrive for this
	// long — an estimate frozen in time cannot guard a live canary.
	// Default 5m; <= 0 disables.
	StaleAfter time.Duration
	// MaxGates caps the retained gate-decision history (oldest dropped).
	// Default 1024.
	MaxGates int
	// PollInterval is the Run loop's cadence. Default 2s. Tests drive
	// Step directly and never start the loop.
	PollInterval time.Duration
	// Addr is the controller's HTTP listen address; empty disables the
	// API. "127.0.0.1:0" picks a free port.
	Addr string
	// CheckpointPath enables atomic checkpoint/resume; empty disables.
	CheckpointPath string
	// CheckpointInterval is the timer between checkpoints. Default 30s.
	CheckpointInterval time.Duration
	// Harvest supplies the per-step evidence (required).
	Harvest HarvestClient
	// Actuator receives the chosen share after every transition; nil
	// means observe-only (gate decisions are still recorded).
	Actuator Actuator
	// Clock supplies timestamps; default wall clock. Tests inject
	// obs.FixedClock for byte-stable decisions.
	Clock obs.Clock
	// Tracer receives poll/gate spans; nil disables tracing.
	Tracer *obs.Tracer
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() error {
	if c.Candidate == "" || c.Baseline == "" {
		return fmt.Errorf("rollout: candidate and baseline policy names required")
	}
	if c.Candidate == c.Baseline {
		return fmt.Errorf("rollout: candidate and baseline are both %q", c.Candidate)
	}
	if c.Harvest == nil {
		return fmt.Errorf("rollout: nil harvest client")
	}
	switch c.Objective {
	case "":
		c.Objective = Maximize
	case Maximize, Minimize:
	default:
		return fmt.Errorf("rollout: objective %q (want %q or %q)", c.Objective, Maximize, Minimize)
	}
	switch c.Estimator {
	case "":
		c.Estimator = "clipped_ips"
	case "clipped_ips", "ips":
	default:
		return fmt.Errorf("rollout: estimator %q (want clipped_ips or ips)", c.Estimator)
	}
	if c.Delta == 0 {
		c.Delta = 0.05
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		return fmt.Errorf("rollout: delta %v out of (0,1)", c.Delta)
	}
	if len(c.CanaryShares) == 0 {
		c.CanaryShares = []float64{0.01, 0.05, 0.25}
	}
	prev := 0.0
	for _, s := range c.CanaryShares {
		if s <= prev || s >= 1 {
			return fmt.Errorf("rollout: canary shares %v must be strictly increasing in (0,1)", c.CanaryShares)
		}
		prev = s
	}
	if c.MinStageSamples <= 0 {
		c.MinStageSamples = 200
	}
	if c.TermLo == 0 && c.TermHi == 0 {
		c.TermHi = 1
	}
	if c.TermLo < 0 || c.TermHi <= c.TermLo {
		return fmt.Errorf("rollout: term range [%v, %v] (need 0 <= lo < hi)", c.TermLo, c.TermHi)
	}
	if c.ESSFloor == 0 {
		c.ESSFloor = 0.05
	}
	if c.ClipCeiling == 0 {
		c.ClipCeiling = 0.25
	}
	if c.StaleAfter == 0 {
		c.StaleAfter = 5 * time.Minute
	}
	if c.MaxGates <= 0 {
		c.MaxGates = 1024
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 2 * time.Second
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = obs.WallClock()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// armTotals is one arm's last-seen estimator totals, kept so each poll can
// feed the sequential monitor exactly the increment of the underlying sums.
type armTotals struct {
	N     int64
	Sum   float64 // Σ term            (= value · n)
	SumSq float64 // Σ term²           (recovered from stderr)
}

// Controller drives one candidate through the rollout state machine.
type Controller struct {
	cfg Config

	mu               sync.Mutex
	stage            Stage
	shareIdx         int // index into CanaryShares while in StageCanary
	polls            int64
	gateSeq          int64
	stageEnteredPoll int64
	stageEnteredN    int64 // candidate N when the stage was entered
	lastProgress     time.Time
	lastCand         armTotals
	lastBase         armTotals
	seq              *abtest.Sequential
	gates            []GateDecision
	transitions      []StageTransition

	start  time.Time
	obsReg *obs.Registry
	met    *metrics
	root   *obs.Span

	runCtx    context.Context
	runCancel context.CancelFunc
	loops     sync.WaitGroup // the poll loop and the checkpoint timer
	ckpt      daemon.Checkpointer
	running   bool

	api *daemon.Server
}

// New builds a controller. Call Start to begin polling (or drive Step
// directly in tests).
func New(cfg Config) (*Controller, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	seq, err := abtest.NewSequentialEB(cfg.TermLo, cfg.TermHi, cfg.Delta)
	if err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, stage: StageShadow, seq: seq}
	c.ckpt = daemon.Checkpointer{
		Path: cfg.CheckpointPath, Interval: cfg.CheckpointInterval,
		Save: c.Checkpoint, Name: "rollout", Logf: cfg.Logf,
	}
	c.initMetrics()
	return c, nil
}

// share maps the current stage to the candidate's traffic share.
func (c *Controller) share() float64 {
	switch c.stage {
	case StageCanary:
		return c.cfg.CanaryShares[c.shareIdx]
	case StageFull:
		return 1
	default: // shadow, rolledback
		return 0
	}
}

// Start restores any checkpoint, pushes the current share to the actuator,
// and launches the poll loop, checkpoint timer, and HTTP API. The
// controller runs until Shutdown.
func (c *Controller) Start(ctx context.Context) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.running {
		return fmt.Errorf("rollout: already started")
	}
	if err := c.ckpt.Resume(c.loadCheckpointLocked); err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	api, err := daemon.Listen(c.cfg.Addr)
	if err != nil {
		return fmt.Errorf("rollout: %w", err)
	}
	c.api = api

	c.start = c.cfg.Clock.Now()
	if c.lastProgress.IsZero() {
		c.lastProgress = c.start
	}
	c.root = c.cfg.Tracer.Start("rollout/run", nil, map[string]any{
		"candidate": c.cfg.Candidate, "baseline": c.cfg.Baseline,
	})
	c.runCtx, c.runCancel = context.WithCancel(ctx)

	// Sync the target with the controller's view of the world before any
	// gate fires: a restart mid-canary must re-assert the canary share.
	if c.cfg.Actuator != nil {
		if err := c.cfg.Actuator.SetShare(c.runCtx, c.share()); err != nil {
			c.cfg.Logf("rollout: initial actuation failed: %v", err)
			c.met.actuateErrors.Inc()
		}
	}

	c.loops.Add(1)
	go func() {
		defer c.loops.Done()
		daemon.Every(c.runCtx, c.cfg.PollInterval, c.poll)
	}()
	c.ckpt.StartTimer(c.runCtx, &c.loops)

	if c.api != nil {
		c.api.Serve(c.handler())
		c.cfg.Logf("rollout: serving on %s", c.api.URL())
	}
	c.running = true
	return nil
}

// Addr returns the API's host:port (empty when disabled or not started).
func (c *Controller) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.api.Addr()
}

// URL returns the API's base URL (after Start).
func (c *Controller) URL() string { return "http://" + c.Addr() }

// Stage returns the current stage.
func (c *Controller) Stage() Stage {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stage
}

// Share returns the candidate's current traffic share.
func (c *Controller) Share() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.share()
}

// poll is one tick of the control loop. Terminal stages stop the clock: a
// rolled-back controller keeps serving its decision history but stops
// polling.
func (c *Controller) poll() {
	if c.Stage() == StageRolledBack {
		return
	}
	if _, err := c.Step(c.runCtx); err != nil && c.runCtx.Err() == nil {
		c.cfg.Logf("rollout: poll failed: %v", err)
	}
}

// Step performs one full control cycle: fetch the two arms' evidence (one
// request), fold the increments into the sequential monitor, evaluate every
// gate, apply the resulting transition, actuate the new share, and record
// the decision. It is the unit the deterministic scenario tests drive.
func (c *Controller) Step(ctx context.Context) (GateDecision, error) {
	sp := c.cfg.Tracer.Start("rollout/step", c.root, nil)
	defer sp.End()

	ev, err := c.cfg.Harvest.Evidence(ctx, c.cfg.Candidate, c.cfg.Baseline)
	if err == nil && (len(ev.Policies) != 2 ||
		ev.Policies[0].Estimate.Policy != c.cfg.Candidate || ev.Policies[1].Estimate.Policy != c.cfg.Baseline) {
		err = fmt.Errorf("rollout: evidence does not carry exactly candidate %q and baseline %q",
			c.cfg.Candidate, c.cfg.Baseline)
	}
	if err != nil {
		c.met.pollErrors.Inc()
		return GateDecision{}, err
	}
	candEv, baseEv := ev.Policies[0], ev.Policies[1]
	cand, base := candEv.Estimate, baseEv.Estimate

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stage == StageRolledBack {
		return GateDecision{Stage: StageRolledBack, Outcome: OutcomeNone,
			Reason: "terminal stage: rollout was rolled back"}, nil
	}
	now := c.cfg.Clock.Now()
	if c.lastProgress.IsZero() {
		// First cycle ever (manual stepping without Start): the staleness
		// window opens now, not at the epoch.
		c.lastProgress = now
	}
	c.polls++
	c.met.polls.Inc()

	candTot := totalsOf(selectEstimator(cand, c.cfg.Estimator), cand.N)
	baseTot := totalsOf(selectEstimator(base, c.cfg.Estimator), base.N)

	// Fold the per-arm increments into the anytime monitor. The monitor's
	// state is (sum, sumsq, count), so batch folding reproduces exactly the
	// state it would have reached seeing every datapoint individually.
	if err := c.foldIncrement(0, c.lastBase, baseTot); err != nil {
		c.met.seqRejects.Inc()
		c.cfg.Logf("rollout: baseline increment rejected: %v", err)
	}
	if err := c.foldIncrement(1, c.lastCand, candTot); err != nil {
		c.met.seqRejects.Inc()
		c.cfg.Logf("rollout: candidate increment rejected: %v", err)
	}
	if candTot.N > c.lastCand.N {
		c.lastProgress = now
	}
	c.lastCand, c.lastBase = candTot, baseTot

	in := gateInputs{
		Poll:         c.polls,
		Now:          now,
		Stage:        c.stage,
		Share:        c.share(),
		ShareIdx:     c.shareIdx,
		Cand:         gateArm(&c.cfg, c.cfg.Candidate, selectEstimator(cand, c.cfg.Estimator), cand.N, candEv.Diagnostics),
		Base:         gateArm(&c.cfg, c.cfg.Baseline, selectEstimator(base, c.cfg.Estimator), base.N, baseEv.Diagnostics),
		StageSamples: candTot.N - c.stageEnteredN,
		StaleFor:     now.Sub(c.lastProgress),
		Watermark:    ev.Watermark,
		Seq:          c.seq,
	}
	d := evaluate(&c.cfg, in)
	c.gateSeq++
	d.Seq = c.gateSeq
	c.apply(&d, now)
	c.recordLocked(d)
	sp.SetAttr("outcome", string(d.Outcome))
	return d, nil
}

// foldIncrement feeds one arm's estimator-sum increment to the monitor.
// Regressions in totals (a harvestd restart from an older checkpoint) skip
// the fold rather than fabricate negative batches.
func (c *Controller) foldIncrement(arm int, prev, cur armTotals) error {
	dn := cur.N - prev.N
	if dn <= 0 {
		return nil
	}
	dSum := cur.Sum - prev.Sum
	dSumSq := cur.SumSq - prev.SumSq
	if dSumSq < 0 {
		dSumSq = 0
	}
	return c.seq.AddBatch(arm, int(dn), dSum, dSumSq)
}

// apply executes a decision's transition under c.mu: update the state
// machine, reset per-stage accounting, and push the new share to the
// actuator. Promotion is withheld (downgraded to hold) if actuation fails —
// the controller must never believe a canary is serving traffic it could
// not start; rollback transitions always commit, because the safest
// recorded state after a failed rollback actuation is still "rolled back".
func (c *Controller) apply(d *GateDecision, now time.Time) {
	if d.Outcome != OutcomePromote && d.Outcome != OutcomeRollback {
		return
	}
	nextStage, nextIdx := c.stage, c.shareIdx
	if d.Outcome == OutcomePromote {
		switch c.stage {
		case StageShadow:
			nextStage, nextIdx = StageCanary, 0
		case StageCanary:
			if c.shareIdx+1 < len(c.cfg.CanaryShares) {
				nextIdx = c.shareIdx + 1
			} else {
				nextStage = StageFull
			}
		}
	} else {
		nextStage = StageRolledBack
	}
	nextShare := 0.0
	switch nextStage {
	case StageCanary:
		nextShare = c.cfg.CanaryShares[nextIdx]
	case StageFull:
		nextShare = 1
	}

	if c.cfg.Actuator != nil {
		if err := c.cfg.Actuator.SetShare(c.runCtxOrBackground(), nextShare); err != nil {
			c.met.actuateErrors.Inc()
			d.ActuateError = err.Error()
			if d.Outcome == OutcomePromote {
				d.Outcome = OutcomeHold
				d.Reason = fmt.Sprintf("promotion withheld: actuation failed: %v", err)
				return
			}
		}
	}

	from := c.stage
	c.stage, c.shareIdx = nextStage, nextIdx
	c.stageEnteredPoll = c.polls
	c.stageEnteredN = c.lastCand.N
	// Each gate demands fresh evidence at the new exposure level: the blend
	// changes the logged propensities, so carrying over the monitor would
	// mix regimes.
	c.seq, _ = abtest.NewSequentialEB(c.cfg.TermLo, c.cfg.TermHi, c.cfg.Delta)
	c.transitions = append(c.transitions, StageTransition{
		From: from, To: nextStage, Share: nextShare,
		AtPoll: c.polls, TimeUnixMilli: now.UnixMilli(), Reason: d.Reason,
	})
	d.NextStage, d.NextShare = nextStage, nextShare
	if d.Outcome == OutcomePromote {
		c.met.promotions.Inc()
	} else {
		c.met.rollbacks.Inc()
	}
	c.cfg.Logf("rollout: %s: %s -> %s (share %g): %s", d.Outcome, from, nextStage, nextShare, d.Reason)
}

// runCtxOrBackground returns the run context when the loop is live, or a
// background context when Step is driven manually before Start.
func (c *Controller) runCtxOrBackground() context.Context {
	if c.runCtx != nil {
		return c.runCtx
	}
	return context.Background()
}

// recordLocked appends a decision to the capped gate history.
func (c *Controller) recordLocked(d GateDecision) {
	c.gates = append(c.gates, d)
	if over := len(c.gates) - c.cfg.MaxGates; over > 0 {
		c.gates = append(c.gates[:0], c.gates[over:]...)
	}
	switch d.Outcome {
	case OutcomeHold:
		c.met.holds.Inc()
	}
	c.met.setStage(c.stage, c.share())
}

// totalsOf recovers running sums from a served (value, stderr, n) triple:
// sum = v·n and, since stderr² = var/n with var over n−1, the term sum of
// squares is stderr²·n·(n−1) + n·v². This is the inverse of the estimate
// derivation in harvestd, so the monitor sees the daemon's exact sums.
func totalsOf(ev EstimatorView, n int64) armTotals {
	if n <= 0 {
		return armTotals{}
	}
	nf := float64(n)
	v := ev.Value
	sumSq := ev.StdErr*ev.StdErr*nf*(nf-1) + nf*v*v
	if math.IsNaN(sumSq) || sumSq < 0 {
		sumSq = nf * v * v
	}
	return armTotals{N: n, Sum: v * nf, SumSq: sumSq}
}

// Gates returns a copy of the retained gate decisions.
func (c *Controller) Gates() []GateDecision {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]GateDecision(nil), c.gates...)
}

// Transitions returns a copy of the stage-transition history.
func (c *Controller) Transitions() []StageTransition {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]StageTransition(nil), c.transitions...)
}

// Shutdown stops the loops, writes a final checkpoint, and closes the API.
func (c *Controller) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return nil
	}
	c.running = false
	cancel := c.runCancel
	c.mu.Unlock()

	cancel()
	c.loops.Wait()
	srvErr := c.api.Shutdown(ctx)
	ckptErr := c.ckpt.Final()
	c.root.End()
	if ckptErr != nil {
		return fmt.Errorf("rollout: %w", ckptErr)
	}
	return srvErr
}
