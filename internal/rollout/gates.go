package rollout

import (
	"fmt"
	"math"
	"time"

	"repro/internal/abtest"
	"repro/internal/harvestd"
	"repro/internal/ope"
)

// Outcome is a gate evaluation's verdict.
type Outcome string

// Gate outcomes. OutcomeNone marks evaluations in a terminal stage.
const (
	OutcomePromote  Outcome = "promote"
	OutcomeHold     Outcome = "hold"
	OutcomeRollback Outcome = "rollback"
	OutcomeNone     Outcome = "none"
)

// GateCheck is one named guard inside a gate decision. OK means the check
// did not object to the current course; Detail is a human-readable account
// of the evidence, formatted deterministically (%g floats, no timestamps)
// so scripted runs yield byte-identical decision records.
type GateCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// GateArm is the per-policy evidence a decision was based on: the served
// estimate restated with the controller's own gate interval, plus the
// estimator-health diagnostics the rollback guards read. Deliberately free
// of anything worker- or wall-time-dependent.
type GateArm struct {
	Policy       string  `json:"policy"`
	N            int64   `json:"n"`
	Value        float64 `json:"value"`
	StdErr       float64 `json:"stderr"`
	Lo           float64 `json:"lo"`
	Hi           float64 `json:"hi"`
	ESSFraction  float64 `json:"ess_fraction"`
	ClipFraction float64 `json:"clip_fraction"`
}

// GateDecision is one machine-readable gate evaluation — the audit record
// that lets CI (or a reviewer) replay exactly why every promotion,
// hold, and rollback happened.
type GateDecision struct {
	// Seq numbers decisions from 1 in evaluation order.
	Seq int64 `json:"seq"`
	// TimeUnixMilli is the injected clock's time of the evaluation.
	TimeUnixMilli int64 `json:"time_unix_milli"`
	// Stage and Share are the state the gate evaluated in.
	Stage Stage   `json:"stage"`
	Share float64 `json:"share"`
	// Outcome is the verdict; Reason is the one-line justification (for a
	// hold, the first check that blocked promotion).
	Outcome Outcome `json:"outcome"`
	Reason  string  `json:"reason"`
	// NextStage/NextShare are set when the outcome changed the state.
	NextStage Stage   `json:"next_stage,omitempty"`
	NextShare float64 `json:"next_share,omitempty"`
	// Candidate and Baseline capture the evidence; Checks every guard.
	Candidate GateArm     `json:"candidate"`
	Baseline  GateArm     `json:"baseline"`
	Checks    []GateCheck `json:"checks"`
	// ActuateError records a failed share push (promotion is then withheld;
	// rollback proceeds regardless).
	ActuateError string `json:"actuate_error,omitempty"`
}

// StageTransition is one edge taken through the state machine.
type StageTransition struct {
	From          Stage   `json:"from"`
	To            Stage   `json:"to"`
	Share         float64 `json:"share"`
	AtPoll        int64   `json:"at_poll"`
	TimeUnixMilli int64   `json:"time_unix_milli"`
	Reason        string  `json:"reason"`
}

// EstimatorView is the (value, stderr) pair of one served estimator.
type EstimatorView struct {
	Value  float64
	StdErr float64
}

// selectEstimator picks the configured estimator out of a served estimate.
func selectEstimator(pe harvestd.PolicyEstimate, name string) EstimatorView {
	ev := pe.ClippedIPS
	if name == "ips" {
		ev = pe.IPS
	}
	return EstimatorView{Value: ev.Value, StdErr: ev.StdErr}
}

// armView assembles the decision-record view of one arm: the served
// estimate re-bounded with the controller's own gate interval (so the
// recorded Lo/Hi are exactly what the separation check compared) plus the
// health fractions. cfg's Delta and TermHi shape the interval.
func gateArm(cfg *Config, policy string, ev EstimatorView, n int64, dg harvestd.PolicyDiagnostics) GateArm {
	iv := ope.HighConfidenceInterval(ope.Estimate{Value: ev.Value, StdErr: ev.StdErr, N: int(n)}, cfg.TermHi, cfg.Delta)
	// Intersect with the a-priori term range: every per-datapoint estimator
	// term lies in [TermLo, TermHi], so the true value does too and the
	// intersection keeps coverage. This also bounds the n=0 interval (whose
	// concentration radius is infinite) — ±Inf is not representable in the
	// JSON decision record or the checkpoint.
	lo := math.Max(iv.Lo, cfg.TermLo)
	hi := math.Min(iv.Hi, cfg.TermHi)
	return GateArm{
		Policy: policy, N: n,
		Value: ev.Value, StdErr: ev.StdErr,
		Lo: lo, Hi: hi,
		ESSFraction:  dg.ESSFraction,
		ClipFraction: dg.ClipFraction,
	}
}

// gateInputs is everything evaluate needs, gathered under the controller
// lock. Keeping evaluate a pure function of this struct is what makes gate
// decisions benchmarkable and replayable in isolation.
type gateInputs struct {
	Poll         int64
	Now          time.Time
	Stage        Stage
	Share        float64
	ShareIdx     int
	Cand, Base   GateArm
	StageSamples int64         // candidate datapoints since entering this stage
	StaleFor     time.Duration // time since the candidate count last grew
	// Watermark is the harvest surface's pipeline watermark, when it serves
	// one (nil otherwise — the guard is then skipped entirely, keeping
	// decision records of watermark-less clients unchanged).
	Watermark *harvestd.Watermark
	Seq       *abtest.Sequential
}

// better orients a comparison: is a better than b under the objective?
func better(obj Objective, a, b float64) bool {
	if obj == Minimize {
		return a < b
	}
	return a > b
}

// evaluate runs every guard and produces the decision, without side
// effects. Check order is fixed — health guards first (they can only roll
// back), then evidence guards — and the first failing rollback guard or
// the first unmet promotion requirement supplies the Reason, so identical
// inputs always produce identical records.
//
// Promotion demands agreement of two independent tests on the same sums:
// the per-arm empirical-Bernstein intervals must separate in the
// candidate's favor (the Thomas-style high-confidence OPE gate), and the
// anytime-valid sequential monitor must have decided for the candidate
// (valid at every peek, so polling each cycle never inflates the error).
// Regression is the mirror image — either test confirming the candidate
// worse triggers rollback; at full exposure only the health and regression
// guards run (there is nothing left to promote to).
func evaluate(cfg *Config, in gateInputs) GateDecision {
	d := GateDecision{
		TimeUnixMilli: in.Now.UnixMilli(),
		Stage:         in.Stage,
		Share:         in.Share,
		Candidate:     in.Cand,
		Baseline:      in.Base,
	}
	check := func(name string, ok bool, format string, args ...any) bool {
		d.Checks = append(d.Checks, GateCheck{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
		return ok
	}

	// --- Health guards: any failure rolls back. ---
	fresh := cfg.StaleAfter <= 0 || in.StaleFor < cfg.StaleAfter
	if !check("staleness", fresh, "no new candidate samples for %s (limit %s)",
		in.StaleFor, cfg.StaleAfter) {
		d.Outcome, d.Reason = OutcomeRollback, "estimates stale: "+d.Checks[len(d.Checks)-1].Detail
		return d
	}
	if in.Watermark != nil {
		// The staleness guard above watches sample counts from the outside;
		// the watermark guard reads the pipeline's own account of how old
		// the folds behind those estimates are. Age -1 means nothing folded
		// yet — min_samples holds in that case, no need to roll back.
		wmOK := cfg.StaleAfter <= 0 || in.Watermark.AgeSeconds < 0 ||
			in.Watermark.AgeSeconds < cfg.StaleAfter.Seconds()
		if !check("watermark", wmOK, "fold watermark age %gs (limit %s; seq %d, %d behind)",
			in.Watermark.AgeSeconds, cfg.StaleAfter, in.Watermark.Seq, in.Watermark.Behind) {
			d.Outcome, d.Reason = OutcomeRollback, "estimates stale: "+d.Checks[len(d.Checks)-1].Detail
			return d
		}
	}
	// ESS and clip fractions computed from fewer than a stage's worth of
	// samples are noise, not a health verdict (the first poll of a fresh
	// harvest can legitimately see ESS 0 when every record so far carried
	// zero candidate weight) — below MinStageSamples the health guards
	// pass and min_samples holds instead.
	warm := in.Cand.N >= cfg.MinStageSamples
	essOK := cfg.ESSFloor < 0 || !warm || in.Cand.ESSFraction >= cfg.ESSFloor
	if !check("ess", essOK, "candidate ESS fraction %g (floor %g)",
		in.Cand.ESSFraction, cfg.ESSFloor) {
		d.Outcome, d.Reason = OutcomeRollback, "estimator health collapsed: "+d.Checks[len(d.Checks)-1].Detail
		return d
	}
	clipOK := cfg.ClipCeiling <= 0 || !warm || in.Cand.ClipFraction <= cfg.ClipCeiling
	if !check("clip", clipOK, "candidate clip fraction %g (ceiling %g)",
		in.Cand.ClipFraction, cfg.ClipCeiling) {
		d.Outcome, d.Reason = OutcomeRollback, "estimator health collapsed: "+d.Checks[len(d.Checks)-1].Detail
		return d
	}

	// --- Evidence guards. ---
	ebSep := in.Cand.N > 0 && in.Base.N > 0 && func() bool {
		if cfg.Objective == Minimize {
			return in.Cand.Hi < in.Base.Lo
		}
		return in.Cand.Lo > in.Base.Hi
	}()
	ebRegress := in.Cand.N > 0 && in.Base.N > 0 && func() bool {
		if cfg.Objective == Minimize {
			return in.Cand.Lo > in.Base.Hi
		}
		return in.Cand.Hi < in.Base.Lo
	}()
	ebDetail := fmt.Sprintf("candidate [%g, %g] vs baseline [%g, %g] (objective %s)",
		in.Cand.Lo, in.Cand.Hi, in.Base.Lo, in.Base.Hi, cfg.Objective)
	check("eb_separation", ebSep, "%s", ebDetail)

	winner, decided := in.Seq.Decided()
	// The monitor's winner is the higher-mean arm (arm 1 = candidate);
	// under Minimize the lower-mean arm is the better one.
	seqForCand := decided && ((cfg.Objective == Maximize) == (winner == 1))
	n0, n1 := in.Seq.N()
	check("sequential", seqForCand,
		"decided=%t winner=arm%d n0=%d n1=%d", decided, winner, n0, n1)

	if ebRegress || (decided && !seqForCand) {
		d.Outcome = OutcomeRollback
		switch {
		case ebRegress && decided && !seqForCand:
			d.Reason = "regression confirmed by EB intervals and sequential test"
		case ebRegress:
			d.Reason = "regression: EB intervals separated against the candidate"
		default:
			d.Reason = "regression: sequential test decided against the candidate"
		}
		return d
	}

	if in.Stage == StageFull {
		d.Outcome, d.Reason = OutcomeHold, "at full exposure; monitoring for regression"
		return d
	}

	enough := in.StageSamples >= cfg.MinStageSamples
	check("min_samples", enough, "%d/%d new candidate samples this stage",
		in.StageSamples, cfg.MinStageSamples)

	switch {
	case !enough:
		d.Outcome, d.Reason = OutcomeHold, "insufficient evidence: "+d.Checks[len(d.Checks)-1].Detail
	case !ebSep:
		d.Outcome, d.Reason = OutcomeHold, "EB intervals overlap: "+ebDetail
	case !seqForCand:
		d.Outcome, d.Reason = OutcomeHold, "sequential test undecided"
	default:
		d.Outcome = OutcomePromote
		d.Reason = fmt.Sprintf("EB separation and sequential test agree: candidate better (objective %s)", cfg.Objective)
	}
	return d
}
