// Package ope implements off-policy evaluation for contextual bandits and
// short-horizon reinforcement learning — the core contribution of
// "Harvesting Randomness to Optimize Distributed Systems" (HotNets 2017).
//
// Given exploration data ⟨x_t, a_t, r_t, p_t⟩ logged by a deployed
// randomized policy, the estimators here answer: what average reward would a
// different policy π have obtained? The workhorse is inverse propensity
// scoring (§4 of the paper):
//
//	ips(π) = (1/N) Σ_t 1{π(x_t)=a_t} · r_t / p_t
//
// which is unbiased whenever every action has positive logged propensity.
// The package also provides the bias/variance alternatives the paper's §5
// points at (clipped IPS, self-normalized IPS, the direct method, doubly
// robust) and the trajectory-level importance sampling estimators needed
// when decisions have long-term effects, plus the paper's Eq. 1 error bound
// and its A/B-testing counterpart.
//
// IPS, clipped IPS and SNIPS share one core, Accum: the running sums of a
// candidate's importance weights and weighted rewards. The batch estimators
// fold a dataset into one and read it; harvestd folds one per ingestion
// worker and merges them on read — the same formulas over the same sums.
package ope

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// Estimate is the result of evaluating one policy on one dataset.
type Estimate struct {
	// Value is the estimated average reward of the candidate policy.
	Value float64
	// StdErr is the standard error of Value (sample std dev of the
	// per-datapoint estimates divided by √N).
	StdErr float64
	// N is the number of datapoints consumed.
	N int
	// Matches counts datapoints where the candidate policy picked the
	// logged action — the effective support of the estimate.
	Matches int
	// MaxWeight is the largest importance weight encountered, a quick
	// variance diagnostic.
	MaxWeight float64
	// ESS is Kish's effective sample size (Σw)²/Σw² for the importance
	// weights — how many "full-value" datapoints the weighted estimate is
	// really built on. A small ESS relative to N warns that the candidate
	// policy strays far from the logging policy. Zero when the estimator
	// does not use importance weights. ClippedIPS reports it over the raw,
	// unclipped weights — the figure /diagnostics serves for the same
	// Accum — not over the clipped ones it averaged.
	ESS float64
	// MeanWeight is the average importance weight actually used by the
	// estimator (post-clipping, when the estimator clips). For a
	// well-calibrated candidate/log pair it is ≈1; drift in either
	// direction is an estimator-health warning. Zero for weight-free
	// estimators.
	MeanWeight float64
	// ClipFraction is the fraction of datapoints whose importance weight
	// exceeded the clip cap — the amount of deliberate bias a clipped
	// estimate carries. Zero when the estimator does not clip.
	ClipFraction float64
}

// String renders the estimate compactly.
func (e Estimate) String() string {
	return fmt.Sprintf("%.4g ±%.2g (N=%d, matches=%d)", e.Value, e.StdErr, e.N, e.Matches)
}

// ConfidenceInterval returns a 1-delta interval around the estimate using a
// normal approximation on the standard error.
func (e Estimate) ConfidenceInterval(delta float64) stats.Interval {
	r := stats.NormalApproxRadius(e.StdErr, delta)
	if e.StdErr == 0 {
		r = 0
	}
	return stats.Interval{Point: e.Value, Lo: e.Value - r, Hi: e.Value + r}
}

// Estimator evaluates a candidate policy against logged exploration data.
type Estimator interface {
	// Name identifies the estimator in experiment output.
	Name() string
	// Estimate computes the policy's estimated average reward.
	Estimate(policy core.Policy, data core.Dataset) (Estimate, error)
}

// RewardModel predicts the reward of taking an action in a context. The
// direct method and doubly robust estimators consume one; package learn
// provides regression-based implementations.
type RewardModel interface {
	Predict(ctx *core.Context, a core.Action) float64
}

// IPS is the unclipped inverse propensity scoring estimator (Eq. in §4).
// The zero value is ready to use.
type IPS struct{}

// Name implements Estimator.
func (IPS) Name() string { return "ips" }

// Estimate implements Estimator. It errors on an empty dataset or any
// datapoint with non-positive propensity (the estimator is undefined there).
func (IPS) Estimate(policy core.Policy, data core.Dataset) (Estimate, error) {
	a, err := fold(policy, data, 0)
	if err != nil {
		return Estimate{}, err
	}
	mean, _, se := moments(a.SumWR, a.SumWRSq, a.N)
	return read(&a, mean, se), nil
}

// ClippedIPS truncates importance weights at Max, trading a little bias for
// a large variance reduction when propensities are small.
type ClippedIPS struct {
	// Max is the weight cap; values <= 0 mean "no clipping" (plain IPS).
	Max float64
}

// Name implements Estimator.
func (c ClippedIPS) Name() string { return fmt.Sprintf("ips-clip%.3g", c.Max) }

// Estimate implements Estimator. MeanWeight and MaxWeight describe the
// clipped weights the estimate used; ESS is Kish's over the raw weights.
func (c ClippedIPS) Estimate(policy core.Policy, data core.Dataset) (Estimate, error) {
	a, err := fold(policy, data, c.Max)
	if err != nil {
		return Estimate{}, err
	}
	mean, _, se := moments(a.SumCWR, a.SumCWRSq, a.N)
	e := read(&a, mean, se)
	e.MeanWeight = a.SumCW / float64(a.N)
	if c.Max > 0 {
		e.MaxWeight = min(e.MaxWeight, c.Max)
	}
	return e, nil
}

// SNIPS is the self-normalized IPS estimator: it divides the weighted reward
// sum by the sum of weights rather than by N. It is biased but consistent,
// with much lower variance, and is invariant to reward translation.
type SNIPS struct{}

// Name implements Estimator.
func (SNIPS) Name() string { return "snips" }

// Estimate implements Estimator. It errors with ErrNoOverlap when no
// datapoint matches the candidate.
func (SNIPS) Estimate(policy core.Policy, data core.Dataset) (Estimate, error) {
	a, err := fold(policy, data, 0)
	if err != nil {
		return Estimate{}, err
	}
	if a.SumW == 0 {
		return Estimate{}, fmt.Errorf("ope: %w: no datapoint matches the candidate policy", ErrNoOverlap)
	}
	v, se := a.snips()
	return read(&a, v, se), nil
}

// fold checks each propensity and folds the dataset, in order, into one
// Accum clipping at clip — the single pass behind IPS, ClippedIPS and
// SNIPS. It does not allocate: estimator calls sit in the inner loop of the
// policy-class sweeps (Eq. 1 evaluates thousands of policies on one log).
func fold(policy core.Policy, data core.Dataset, clip float64) (Accum, error) {
	var a Accum
	if len(data) == 0 {
		return a, core.ErrNoData
	}
	for i := range data {
		d := &data[i]
		if !(d.Propensity > 0) {
			return a, fmt.Errorf("ope: datapoint %d has propensity %v; %w",
				i, d.Propensity, errBadPropensity)
		}
		a.Fold(core.ActionProb(policy, &d.Context, d.Action), d.Propensity, d.Reward, clip, 0)
	}
	return a, nil
}

// read is one estimator's Estimate off a folded Accum: its value and
// standard error, and the weight health /diagnostics reports.
func read(a *Accum, value, stderr float64) Estimate {
	d := a.Diagnostics("")
	return Estimate{Value: value, StdErr: stderr, N: int(a.N), Matches: int(a.Matches),
		MaxWeight: d.MaxWeight, ESS: d.ESS, MeanWeight: d.MeanWeight, ClipFraction: d.ClipFraction}
}

// DirectMethod scores a policy purely with a learned reward model:
// dm(π) = (1/N) Σ_t model(x_t, π(x_t)). It has low variance but inherits
// any bias in the model.
type DirectMethod struct {
	Model RewardModel
}

// Name implements Estimator.
func (DirectMethod) Name() string { return "dm" }

// Estimate implements Estimator.
func (dm DirectMethod) Estimate(policy core.Policy, data core.Dataset) (Estimate, error) {
	if len(data) == 0 {
		return Estimate{}, core.ErrNoData
	}
	if dm.Model == nil {
		return Estimate{}, fmt.Errorf("ope: direct method requires a reward model")
	}
	terms := make([]float64, len(data))
	sum := 0.0
	for i := range data {
		d := &data[i]
		a := policy.Act(&d.Context)
		v := dm.Model.Predict(&d.Context, a)
		terms[i] = v
		sum += v
	}
	n := float64(len(data))
	return Estimate{
		Value:   sum / n,
		StdErr:  math.Sqrt(stats.Variance(terms) / n),
		N:       len(data),
		Matches: len(data),
	}, nil
}

// DoublyRobust combines the direct method with an IPS correction on the
// model's residuals (Dudík, Langford, Li 2011): unbiased whenever either the
// propensities or the model are correct, with variance driven only by the
// residuals.
type DoublyRobust struct {
	Model RewardModel
	// Clip optionally caps the correction weights (<= 0 disables).
	Clip float64
}

// Name implements Estimator.
func (DoublyRobust) Name() string { return "dr" }

// Estimate implements Estimator.
func (dr DoublyRobust) Estimate(policy core.Policy, data core.Dataset) (Estimate, error) {
	if len(data) == 0 {
		return Estimate{}, core.ErrNoData
	}
	if dr.Model == nil {
		return Estimate{}, fmt.Errorf("ope: doubly robust requires a reward model")
	}
	terms := make([]float64, len(data))
	sum := 0.0
	matches := 0
	clipped := 0
	maxW := 0.0
	wsum, w2sum := 0.0, 0.0
	for i := range data {
		d := &data[i]
		aPi := policy.Act(&d.Context)
		base := dr.Model.Predict(&d.Context, aPi)
		pi := core.ActionProb(policy, &d.Context, d.Action)
		w, ok := core.ImportanceWeight(pi, d.Propensity)
		if !ok {
			return Estimate{}, fmt.Errorf("ope: datapoint %d has propensity %v; %w",
				i, d.Propensity, errBadPropensity)
		}
		if dr.Clip > 0 && w > dr.Clip {
			w = dr.Clip
			clipped++
		}
		if pi > 0 {
			matches++
		}
		if w > maxW {
			maxW = w
		}
		wsum += w
		w2sum += w * w
		t := base + w*(d.Reward-dr.Model.Predict(&d.Context, d.Action))
		terms[i] = t
		sum += t
	}
	n := float64(len(data))
	est := Estimate{
		Value:        sum / n,
		StdErr:       math.Sqrt(stats.Variance(terms) / n),
		N:            len(data),
		Matches:      matches,
		MaxWeight:    maxW,
		MeanWeight:   wsum / n,
		ClipFraction: float64(clipped) / n,
	}
	if w2sum > 0 {
		est.ESS = wsum * wsum / w2sum
	}
	return est, nil
}

var (
	errBadPropensity = fmt.Errorf("propensity must be positive (all actions must be explored)")
	// ErrNoOverlap is returned when no logged datapoint matches the
	// candidate policy, so a self-normalized estimate is undefined.
	ErrNoOverlap = fmt.Errorf("ope: candidate policy has no overlap with logged actions")
)
