package ope

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/stats"
)

// Scored pairs a candidate policy with its estimate and simultaneous
// confidence interval.
type Scored struct {
	Index    int
	Estimate Estimate
	// Interval holds with probability 1-delta simultaneously across ALL
	// candidates passed to SelectFromEstimates (union bound: each interval
	// is computed at delta/K — the log(K/δ) of the paper's Eq. 1).
	Interval stats.Interval
}

// Selection is the outcome of a simultaneous evaluation.
type Selection struct {
	// Best is the candidate with the highest lower confidence bound (the
	// safe choice under the high-confidence off-policy evaluation
	// recipe); Scores holds every candidate in input order.
	Best   Scored
	Scores []Scored
	// Separated reports whether the best candidate's lower bound exceeds
	// the runner-up's upper bound — i.e. the data sufficed to certify a
	// winner at the requested confidence.
	Separated bool
}

// DeriveRangeHi returns the default per-datapoint IPS range bound for a
// dataset: max reward over the minimum logged propensity (for rewards in
// [0,1] it is 1/ε — the paper's Eq. 1 scale).
func DeriveRangeHi(data core.Dataset) (float64, error) {
	if len(data) == 0 {
		return 0, core.ErrNoData
	}
	eps := data.MinPropensity()
	if !(eps > 0) {
		return 0, fmt.Errorf("ope: cannot derive range: min propensity %v", eps)
	}
	_, hi := data.RewardRange()
	if hi <= 0 {
		hi = 1
	}
	return hi / eps, nil
}

// SelectFromEstimates picks the best of K candidates evaluated on the same
// exploration data — the capability Fig. 1 quantifies: one log, K
// policies. It takes the per-candidate estimates in candidate order,
// attaches simultaneous 1-delta confidence intervals via the union bound
// and picks the winner by confidence bound (the lower bound, or the upper
// one when minimize treats rewards as costs). rangeHi bounds the
// per-datapoint IPS terms; DeriveRangeHi gives the dataset's default.
// Callers that fan the Estimate calls out across workers (cmd/evalpolicy
// does) reduce through this so the selection itself stays serial and
// deterministic in candidate order.
func SelectFromEstimates(ests []Estimate, rangeHi, delta float64, minimize bool) (*Selection, error) {
	if len(ests) == 0 {
		return nil, fmt.Errorf("ope: no candidate estimates")
	}
	if delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("ope: delta %v out of (0,1)", delta)
	}
	if rangeHi <= 0 {
		return nil, fmt.Errorf("ope: rangeHi %v must be positive", rangeHi)
	}
	perPolicyDelta := delta / float64(len(ests)) // union bound

	sel := &Selection{Scores: make([]Scored, len(ests))}
	bestIdx := -1
	for i, e := range ests {
		iv := HighConfidenceInterval(e, rangeHi, perPolicyDelta)
		sel.Scores[i] = Scored{Index: i, Estimate: e, Interval: iv}
		if bestIdx == -1 {
			bestIdx = i
			continue
		}
		cur, best := sel.Scores[i], sel.Scores[bestIdx]
		if minimize {
			if cur.Interval.Hi < best.Interval.Hi {
				bestIdx = i
			}
		} else if cur.Interval.Lo > best.Interval.Lo {
			bestIdx = i
		}
	}
	sel.Best = sel.Scores[bestIdx]

	// Separation: best's pessimistic bound beats every other candidate's
	// optimistic bound.
	sel.Separated = true
	for i, s := range sel.Scores {
		if i == bestIdx {
			continue
		}
		if minimize {
			if sel.Best.Interval.Hi >= s.Interval.Lo {
				sel.Separated = false
				break
			}
		} else if sel.Best.Interval.Lo <= s.Interval.Hi {
			sel.Separated = false
			break
		}
	}
	return sel, nil
}
