package ope

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// TrajectoryIS estimates the average per-trajectory return of a candidate
// policy by weighting each whole trajectory by the product of per-step
// importance ratios — the §5 "estimators that account for long-term effects"
// (reweighing data by the probability of matching *sequences* of actions):
//
//	v(π) = (1/M) Σ_traj [ Π_t π(a_t|x_t)/p_t ] · G(traj)
//
// where G is the (optionally discounted) return. Unbiased under full support
// but with variance that explodes in the horizon: the probability of a long
// random sequence matching is tiny, exactly the paper's point about why
// these estimators are hard to use. Exposing that variance (via MaxWeight
// and StdErr) is the purpose of this implementation.
type TrajectoryIS struct {
	// Gamma is the per-step discount for the trajectory return; 1 means
	// undiscounted.
	Gamma float64
	// Clip caps the per-trajectory weight product (<= 0 disables).
	Clip float64
}

// Name implements a diagnostic label.
func (t TrajectoryIS) Name() string { return "traj-is" }

// EstimateTrajectories computes the weighted estimate over trajectories.
func (t TrajectoryIS) EstimateTrajectories(policy core.Policy, trajs []core.Trajectory) (Estimate, error) {
	if len(trajs) == 0 {
		return Estimate{}, core.ErrNoData
	}
	gamma := t.Gamma
	if gamma == 0 {
		gamma = 1
	}
	terms := make([]float64, len(trajs))
	sum := 0.0
	matches := 0
	maxW := 0.0
	for i, tr := range trajs {
		w := 1.0
		for j := range tr {
			d := &tr[j]
			if !(d.Propensity > 0) {
				return Estimate{}, fmt.Errorf("ope: trajectory %d step %d has propensity %v; %w",
					i, j, d.Propensity, errBadPropensity)
			}
			w *= core.ActionProb(policy, &d.Context, d.Action) / d.Propensity
			if w == 0 {
				break
			}
		}
		if t.Clip > 0 && w > t.Clip {
			w = t.Clip
		}
		if w > 0 {
			matches++
		}
		if w > maxW {
			maxW = w
		}
		terms[i] = w * tr.Return(gamma)
		sum += terms[i]
	}
	m := float64(len(trajs))
	return Estimate{
		Value:     sum / m,
		StdErr:    math.Sqrt(stats.Variance(terms) / m),
		N:         len(trajs),
		Matches:   matches,
		MaxWeight: maxW,
	}, nil
}

// Estimate implements Estimator by grouping the flat dataset into
// trajectories via core.SplitTrajectories.
func (t TrajectoryIS) Estimate(policy core.Policy, data core.Dataset) (Estimate, error) {
	return t.EstimateTrajectories(policy, core.SplitTrajectories(data))
}
