package ope

import (
	"math"

	"repro/internal/core"
	"repro/internal/stats"
)

// Accum holds the sufficient statistics for three importance-weighted
// estimators of one candidate policy — plain IPS, clipped IPS, and SNIPS —
// over a stream of ⟨x, a, r, p⟩ datapoints. It is the package's one
// importance-weighted sum: the batch estimators fold a dataset into one and
// read it, and harvestd folds one per ingestion worker and merges them on
// read. Everything the read path needs (point estimates, standard errors,
// normal and empirical-Bernstein intervals) is derived from these running
// sums, so an Accum is also the unit of sharding and of checkpointing (all
// fields are exported and JSON-serializable).
//
// The ranges use the builtin min/max, inline where math.Min/Max are calls;
// unlike those, they answer (NaN, ±Inf) with NaN, which had poisoned every
// sum already. A Pass skips the accumulate on a miss (pi = ±0, r finite)
// and is still bit for bit Fold per datapoint. A miss adds ±0 to each sum,
// which changes no sum folded from +0 (never −0: in round-to-nearest x + y
// is −0 only when both are), nor MaxW; only its zero goes into the term
// ranges. min and max order numbers totally (−0 < +0), so the Pass puts
// the zeros in at the end — and before a NaN term, as min and max fold
// operands' bits into a NaN (amd64 ORs them), where a zero counts once.
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

// Fold adds one datapoint, a Pass of one, given the candidate's probability
// pi of the logged action, the logged propensity p > 0, and the reward r.
// clip <= 0 disables clipping (clipped IPS is then plain IPS); floor <= 0
// disables propensity-floor accounting. A datapoint with p <= 0 is dropped:
// callers validate upstream, and it would poison every sum with ±Inf.
func (a *Accum) Fold(pi, p, r, clip, floor float64) {
	if !(p > 0) {
		return
	}
	s, ps := Stream{}, Pass{}
	s.Add(p, r, floor)
	a.FoldHit(pi, p, r, clip, &ps)
	a.EndPass(&s, &ps)
}

// Stream is what a batch adds to every candidate's Accum, whatever it picks.
type Stream struct {
	N, FloorHits int64
	MinR, MaxR   float64
}

// Add adds a record with logged propensity p > 0 and reward r.
func (s *Stream) Add(p, r, floor float64) {
	if floor > 0 && p < floor {
		s.FloorHits++
	}
	widen(&s.MinR, &s.MaxR, r, r, s.N == 0)
	s.N++
}

// Pass is one candidate's fold of one batch: Miss on each record in order,
// FoldHit where it is false, then EndPass with the records' Stream. That is
// Fold on each record (see Accum) for p > 0, an Accum that is zero or only
// folded and merged since, and finite rewards unless the Accum was empty.
type Pass struct {
	hits     int64  // records FoldHit accumulated: the term ranges are open
	neg, pos uint64 // sign bit set: a miss's term was −0, +0
}

// Miss reports whether the record is a miss, noting its term's sign if so.
func (ps *Pass) Miss(pi, r float64) bool {
	if z := pi * r; pi == 0 && z == 0 { // z: the term's sign (p > 0); NaN if r is infinite
		ps.neg, ps.pos = ps.neg|math.Float64bits(z), ps.pos|^math.Float64bits(z)
		return true
	}
	return false
}

// FoldHit is Fold on a record, less N, FloorHits and MinR/MaxR.
func (a *Accum) FoldHit(pi, p, r, clip float64, ps *Pass) {
	w, _ := core.ImportanceWeight(pi, p) // p > 0, as Pass requires
	term := w * r
	cw := w
	if clip > 0 && cw > clip {
		cw = clip
		a.Clipped++
	}
	cterm := cw * r // NaN only if term is
	open := a.N+ps.hits == 0
	if term != term && (ps.neg|ps.pos)>>63 != 0 {
		a.putZeros(ps, open) // the zeros meet the ranges before the NaN does
	}
	widen(&a.MinTerm, &a.MaxTerm, term, term, open)
	widen(&a.MinCTerm, &a.MaxCTerm, cterm, cterm, open)
	ps.hits++
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

// putZeros puts the zeros ps noted, lo ≤ hi, into the term ranges.
func (a *Accum) putZeros(ps *Pass, open bool) {
	lo, hi := math.Float64frombits(ps.neg&(1<<63)), math.Float64frombits(^ps.pos&(1<<63))
	widen(&a.MinTerm, &a.MaxTerm, lo, hi, open)
	widen(&a.MinCTerm, &a.MaxCTerm, lo, hi, open)
}

// EndPass closes ps, whose records s adds up: the zeros and the Stream.
func (a *Accum) EndPass(s *Stream, ps *Pass) {
	if s.N == 0 {
		return
	}
	if (ps.neg|ps.pos)>>63 != 0 {
		a.putZeros(ps, a.N+ps.hits == 0)
	}
	widen(&a.MinR, &a.MaxR, s.MinR, s.MaxR, a.N == 0)
	a.N += s.N
	a.FloorHits += s.FloorHits
}

// widen puts [lo, hi] into the range [*mn, *mx], or opens it with them.
func widen(mn, mx *float64, lo, hi float64, open bool) {
	if open {
		*mn, *mx = lo, hi
	}
	*mn, *mx = min(*mn, lo), max(*mx, hi)
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

// PolicyEstimate is the full per-policy report served by the daemons.
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
	pe.MatchRate = float64(a.Matches) / float64(a.N)
	pe.IPS = meanValue(a.SumWR, a.SumWRSq, a.N, a.MaxTerm-a.MinTerm, delta)
	pe.ClippedIPS = meanValue(a.SumCWR, a.SumCWRSq, a.N, a.MaxCTerm-a.MinCTerm, delta)
	if a.SumW > 0 {
		v, se := a.snips()
		pe.SNIPS = EstimatorValue{Value: v, StdErr: se}
		pe.SNIPS.Lo, pe.SNIPS.Hi = normalCI(v, se, delta)
	}
	return pe
}

// snips is the self-normalized estimate v = Σwr / Σw with the delta-method
// standard error se = sqrt(Var(wr − vw)/n)/w̄. The residual sum expands to
// Σw²r² − 2vΣw²r + v²Σw² (the residuals have zero mean by construction),
// so the running sums suffice — no second pass over the data. It needs
// SumW > 0.
func (a *Accum) snips() (v, se float64) {
	v = a.SumWR / a.SumW
	if a.N >= 2 {
		nf := float64(a.N)
		ss := a.SumW2R2 - 2*v*a.SumW2R + v*v*a.SumWSq
		if ss < 0 {
			ss = 0
		}
		se = math.Sqrt(ss*nf/(nf-1)) / a.SumW
	}
	return v, se
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

// moments returns the sample mean of n > 0 terms, their unbiased variance
// (0 below two terms, clamped at 0 against cancellation) and the mean's
// standard error, from the terms' sum and sum of squares.
func moments(sum, sumSq float64, n int64) (mean, variance, se float64) {
	nf := float64(n)
	mean = sum / nf
	if n >= 2 {
		if variance = (sumSq - nf*mean*mean) / (nf - 1); variance < 0 {
			variance = 0
		}
	}
	return mean, variance, math.Sqrt(variance / nf)
}

// meanValue builds the EstimatorValue of a plain sample mean from its term
// sums: mean, stderr, normal CI, and an empirical-Bernstein CI over the
// observed term range.
func meanValue(sum, sumSq float64, n int64, rangeWidth, delta float64) EstimatorValue {
	mean, variance, se := moments(sum, sumSq, n)
	ev := EstimatorValue{Value: mean, StdErr: se}
	if n < 2 {
		ev.Lo, ev.Hi = mean, mean
		return ev
	}
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
