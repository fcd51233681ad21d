package harvestd

import (
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// Accum holds the sufficient statistics for three importance-weighted
// estimators of one candidate policy — plain IPS, clipped IPS, and SNIPS —
// over a stream of ⟨x, a, r, p⟩ datapoints. Unlike the estimators in
// package ope it never sees the data twice: everything the read path needs
// (point estimates, standard errors, normal and empirical-Bernstein
// intervals) is derived from these running sums, so an Accum is also the
// unit of sharding (one per ingestion worker, merged on read) and of
// checkpointing (all fields are exported and JSON-serializable).
type Accum struct {
	// N counts folded datapoints; Matches those on which the candidate put
	// positive probability.
	N       int64 `json:"n"`
	Matches int64 `json:"matches"`

	// Importance-weight sums: w = π(a|x)/p.
	SumW   float64 `json:"sum_w"`
	SumWSq float64 `json:"sum_w_sq"`
	MaxW   float64 `json:"max_w"`

	// IPS term sums: term = w·r.
	SumWR   float64 `json:"sum_wr"`
	SumWRSq float64 `json:"sum_wr_sq"`
	// SumW2R / SumW2R2 accumulate w²r and w²r² for the SNIPS delta-method
	// variance.
	SumW2R  float64 `json:"sum_w2r"`
	SumW2R2 float64 `json:"sum_w2r2"`

	// Clipped-IPS term sums: cterm = min(w, clip)·r.
	SumCW    float64 `json:"sum_cw"`
	SumCWR   float64 `json:"sum_cwr"`
	SumCWRSq float64 `json:"sum_cwr_sq"`

	// Observed ranges, for empirical-Bernstein interval widths.
	MinTerm  float64 `json:"min_term"`
	MaxTerm  float64 `json:"max_term"`
	MinCTerm float64 `json:"min_cterm"`
	MaxCTerm float64 `json:"max_cterm"`
	MinR     float64 `json:"min_r"`
	MaxR     float64 `json:"max_r"`

	// Estimator-health tallies (absent from pre-observability checkpoints,
	// which resume with zeros): Clipped counts datapoints whose importance
	// weight exceeded the clip cap, FloorHits those whose logged propensity
	// fell below the configured floor — the §4 "estimator error" warning
	// signs /diagnostics reports.
	Clipped   int64 `json:"clipped"`
	FloorHits int64 `json:"floor_hits"`
}

// Fold adds one datapoint given the candidate's probability pi of the
// logged action, the logged propensity p > 0, and the reward r. clip <= 0
// disables clipping (the clipped estimator then coincides with plain IPS);
// floor <= 0 disables propensity-floor accounting. A datapoint with
// non-positive propensity is dropped: the sources validate upstream, and
// folding one would poison every running sum with ±Inf.
//
// The running ranges use the builtin min/max, which compile inline where
// math.Min/Max are calls, with the same NaN propagation and −0 < +0 order.
// They differ on one input, the pair (NaN, ±Inf): math.Max/Min return the
// infinity, the builtins NaN. That is not preserved — the NaN has poisoned
// every sum of the Accum already, and Datapoint.Validate keeps non-finite
// rewards out. Merge follows the same rule.
func (a *Accum) Fold(pi, p, r, clip, floor float64) {
	w, ok := core.ImportanceWeight(pi, p)
	if !ok {
		return
	}
	if floor > 0 && p < floor {
		a.FloorHits++
	}
	term := w * r
	cw := w
	if clip > 0 && cw > clip {
		cw = clip
		a.Clipped++
	}
	cterm := cw * r
	if a.N == 0 {
		a.MinTerm, a.MaxTerm = term, term
		a.MinCTerm, a.MaxCTerm = cterm, cterm
		a.MinR, a.MaxR = r, r
	} else {
		a.MinTerm = min(a.MinTerm, term)
		a.MaxTerm = max(a.MaxTerm, term)
		a.MinCTerm = min(a.MinCTerm, cterm)
		a.MaxCTerm = max(a.MaxCTerm, cterm)
		a.MinR = min(a.MinR, r)
		a.MaxR = max(a.MaxR, r)
	}
	a.N++
	if pi > 0 {
		a.Matches++
	}
	a.SumW += w
	a.SumWSq += w * w
	a.MaxW = max(a.MaxW, w)
	a.SumWR += term
	a.SumWRSq += term * term
	a.SumW2R += w * w * r
	a.SumW2R2 += w * w * r * r
	a.SumCW += cw
	a.SumCWR += cterm
	a.SumCWRSq += cterm * cterm
}

// Merge folds another accumulator into a (the parallel reduction of the
// sharded design). Merging an empty accumulator is a no-op.
func (a *Accum) Merge(o *Accum) {
	if o.N == 0 {
		return
	}
	if a.N == 0 {
		*a = *o
		return
	}
	a.MinTerm = min(a.MinTerm, o.MinTerm)
	a.MaxTerm = max(a.MaxTerm, o.MaxTerm)
	a.MinCTerm = min(a.MinCTerm, o.MinCTerm)
	a.MaxCTerm = max(a.MaxCTerm, o.MaxCTerm)
	a.MinR = min(a.MinR, o.MinR)
	a.MaxR = max(a.MaxR, o.MaxR)
	a.N += o.N
	a.Matches += o.Matches
	a.SumW += o.SumW
	a.SumWSq += o.SumWSq
	a.MaxW = max(a.MaxW, o.MaxW)
	a.SumWR += o.SumWR
	a.SumWRSq += o.SumWRSq
	a.SumW2R += o.SumW2R
	a.SumW2R2 += o.SumW2R2
	a.SumCW += o.SumCW
	a.SumCWR += o.SumCWR
	a.SumCWRSq += o.SumCWRSq
	a.Clipped += o.Clipped
	a.FloorHits += o.FloorHits
}

// EstimatorValue is one estimator's view of a policy: point estimate,
// standard error, a normal-approximation 1−delta interval [Lo, Hi], and —
// when computable — a Maurer–Pontil empirical-Bernstein 1−delta interval
// [EBLo, EBHi] over the observed term range. EBOK reports whether the
// Bernstein interval is available (it needs n ≥ 2 and a positive observed
// range; for SNIPS it is never emitted because the self-normalized estimate
// is not a sample mean of i.i.d. terms).
type EstimatorValue struct {
	Value  float64 `json:"value"`
	StdErr float64 `json:"stderr"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	EBLo   float64 `json:"eb_lo,omitempty"`
	EBHi   float64 `json:"eb_hi,omitempty"`
	EBOK   bool    `json:"eb_ok"`
}

// PolicyEstimate is the full per-policy report served by the API.
type PolicyEstimate struct {
	Policy     string         `json:"policy"`
	N          int64          `json:"n"`
	MatchRate  float64        `json:"match_rate"`
	IPS        EstimatorValue `json:"ips"`
	ClippedIPS EstimatorValue `json:"clipped_ips"`
	SNIPS      EstimatorValue `json:"snips"`
}

// Estimate derives all three estimators at confidence 1−delta.
func (a *Accum) Estimate(name string, delta float64) PolicyEstimate {
	pe := PolicyEstimate{Policy: name, N: a.N}
	if a.N == 0 {
		return pe
	}
	nf := float64(a.N)
	pe.MatchRate = float64(a.Matches) / nf

	pe.IPS = meanValue(a.SumWR, a.SumWRSq, a.N, a.MaxTerm-a.MinTerm, delta)
	pe.ClippedIPS = meanValue(a.SumCWR, a.SumCWRSq, a.N, a.MaxCTerm-a.MinCTerm, delta)

	// SNIPS: v = Σwr / Σw with the delta-method standard error used by
	// ope.SNIPS: se = sqrt(Var(wr − vw)/n)/w̄. The residual sum expands to
	// Σw²r² − 2vΣw²r + v²Σw² (the residuals have zero mean by construction),
	// so the running sums suffice — no second pass over the data.
	if a.SumW > 0 {
		v := a.SumWR / a.SumW
		pe.SNIPS = EstimatorValue{Value: v}
		if a.N >= 2 {
			ss := a.SumW2R2 - 2*v*a.SumW2R + v*v*a.SumWSq
			if ss < 0 {
				ss = 0
			}
			pe.SNIPS.StdErr = math.Sqrt(ss*nf/(nf-1)) / a.SumW
		}
		pe.SNIPS.Lo, pe.SNIPS.Hi = normalCI(v, pe.SNIPS.StdErr, delta)
	}
	return pe
}

// PolicyDiagnostics is one policy's estimator-health report: the runtime
// properties that decide whether the policy's confidence interval can be
// trusted, derived from the same running sums as the estimates themselves
// so the two views can never disagree about the data they describe.
type PolicyDiagnostics struct {
	Policy    string  `json:"policy"`
	N         int64   `json:"n"`
	Matches   int64   `json:"matches"`
	MatchRate float64 `json:"match_rate"`
	// ESS is Kish's effective sample size (Σw)²/Σw²: how many "full value"
	// datapoints the importance-weighted estimate is really built on.
	// ESSFraction (= ESS/N) near 1 means the candidate stays close to the
	// logging policy; near 0 means a few huge weights dominate and the
	// nominal N wildly overstates the evidence.
	ESS         float64 `json:"ess"`
	ESSFraction float64 `json:"ess_fraction"`
	// MeanWeight is Σw/N (≈1 for a well-calibrated candidate/log pair);
	// MaxWeight is the largest single importance weight folded.
	MeanWeight float64 `json:"mean_weight"`
	MaxWeight  float64 `json:"max_weight"`
	// ClippedN / ClipFraction count datapoints whose weight hit the clip
	// cap — the bias the clipped-IPS estimate traded for variance.
	ClippedN     int64   `json:"clipped_n"`
	ClipFraction float64 `json:"clip_fraction"`
	// FloorHits / FloorFraction count datapoints logged with a propensity
	// below the configured floor — the SAYER-style warning that the logging
	// policy barely explored those actions.
	FloorHits     int64   `json:"floor_hits"`
	FloorFraction float64 `json:"floor_fraction"`
}

// Diagnostics derives the estimator-health view of the accumulator.
func (a *Accum) Diagnostics(name string) PolicyDiagnostics {
	d := PolicyDiagnostics{
		Policy:    name,
		N:         a.N,
		Matches:   a.Matches,
		MaxWeight: a.MaxW,
		ClippedN:  a.Clipped,
		FloorHits: a.FloorHits,
	}
	if a.N == 0 {
		return d
	}
	nf := float64(a.N)
	d.MatchRate = float64(a.Matches) / nf
	d.MeanWeight = a.SumW / nf
	if a.SumWSq > 0 {
		d.ESS = a.SumW * a.SumW / a.SumWSq
	}
	d.ESSFraction = d.ESS / nf
	d.ClipFraction = float64(a.Clipped) / nf
	d.FloorFraction = float64(a.FloorHits) / nf
	return d
}

// meanValue builds the EstimatorValue of a plain sample mean from its term
// sums: mean, stderr, normal CI, and an empirical-Bernstein CI over the
// observed term range.
func meanValue(sum, sumSq float64, n int64, rangeWidth, delta float64) EstimatorValue {
	nf := float64(n)
	mean := sum / nf
	ev := EstimatorValue{Value: mean}
	if n < 2 {
		ev.Lo, ev.Hi = mean, mean
		return ev
	}
	variance := (sumSq - nf*mean*mean) / (nf - 1)
	if variance < 0 {
		variance = 0
	}
	ev.StdErr = math.Sqrt(variance / nf)
	ev.Lo, ev.Hi = normalCI(mean, ev.StdErr, delta)
	if r := stats.EmpiricalBernsteinRadius(int(n), variance, rangeWidth, delta); !math.IsInf(r, 0) && !math.IsNaN(r) {
		ev.EBLo, ev.EBHi, ev.EBOK = mean-r, mean+r, true
	}
	return ev
}

// normalCI returns the 1−delta normal-approximation interval, collapsing to
// the point when the standard error is zero (so JSON never carries ±Inf).
func normalCI(v, se, delta float64) (lo, hi float64) {
	if se <= 0 {
		return v, v
	}
	r := stats.NormalApproxRadius(se, delta)
	if math.IsInf(r, 0) || math.IsNaN(r) {
		return v, v
	}
	return v - r, v + r
}
