// Package stats provides the statistical plumbing shared by the harvesting
// pipeline and its experiments: running moments, quantiles, bootstrap
// resampling, histograms, and the concentration bounds (Hoeffding,
// empirical Bernstein) used for high-confidence off-policy evaluation.
//
// All randomized routines take an explicit *rand.Rand so that every
// experiment in this repository is reproducible from a seed.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// ErrEmpty is returned by routines that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// StdErr returns the standard error of the mean of xs.
func StdErr(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (the same scheme as numpy's
// default). The input is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// QuantilesSorted computes several quantiles in one pass over a single sort.
// It returns one value per entry of qs, in order.
func QuantilesSorted(xs []float64, qs ...float64) ([]float64, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) {
			return nil, fmt.Errorf("stats: quantile %v out of [0,1]", q)
		}
		out[i] = quantileSorted(sorted, q)
	}
	return out, nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Welford accumulates mean and variance in a single pass without storing
// samples. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations folded in so far.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased running sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 before any observation).
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation (0 before any observation).
func (w *Welford) Max() float64 { return w.max }

// Merge folds another accumulator into w (parallel Welford merge).
func (w *Welford) Merge(o *Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = *o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Interval is a symmetric or asymmetric confidence interval around a point
// estimate.
type Interval struct {
	Point float64
	Lo    float64
	Hi    float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies inside the interval (inclusive).
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// String renders the interval as "point [lo, hi]".
func (iv Interval) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", iv.Point, iv.Lo, iv.Hi)
}

// HoeffdingRadius returns the two-sided 1-delta Hoeffding confidence radius
// for the mean of n i.i.d. observations bounded in [lo, hi]:
//
//	r = (hi-lo) * sqrt(log(2/delta) / (2n))
func HoeffdingRadius(n int, lo, hi, delta float64) float64 {
	if n <= 0 || delta <= 0 || delta >= 1 || hi <= lo {
		return math.Inf(1)
	}
	return (hi - lo) * math.Sqrt(math.Log(2/delta)/(2*float64(n)))
}

// EmpiricalBernsteinRadius returns the two-sided 1-delta
// Maurer–Pontil empirical Bernstein radius for the mean of n observations
// with sample variance v, bounded in an interval of width rangeWidth:
//
//	r = sqrt(2 v log(3/delta) / n) + 3 rangeWidth log(3/delta) / n
//
// Unlike Hoeffding it adapts to low variance, which matters for importance-
// weighted estimators whose range can be large but whose variance is small.
func EmpiricalBernsteinRadius(n int, v, rangeWidth, delta float64) float64 {
	if n <= 1 || delta <= 0 || delta >= 1 || rangeWidth <= 0 {
		return math.Inf(1)
	}
	l := math.Log(3 / delta)
	return math.Sqrt(2*v*l/float64(n)) + 3*rangeWidth*l/float64(n)
}

// NormalApproxRadius returns the 1-delta two-sided normal-approximation
// radius z_{1-delta/2} * se. It inverts the standard normal CDF via
// erfinv-free bisection on math.Erfc, which is plenty accurate for the
// delta values used here.
func NormalApproxRadius(se, delta float64) float64 {
	if se <= 0 || delta <= 0 || delta >= 1 {
		return math.Inf(1)
	}
	return zQuantile(1-delta/2) * se
}

// zQuantile returns the p-quantile of the standard normal distribution.
// p must lie in (0, 1). A daemon asks for the same confidence level for
// every interval it serves, so the last (p, z) pair is kept: the bisection
// runs once per distinct p in a row, not once per interval.
func zQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	if m := zMemo.Load(); m != nil && m.p == p {
		return m.z
	}
	z := zBisect(p)
	zMemo.Store(&zPair{p: p, z: z})
	return z
}

// zPair is one memoised zQuantile result; zMemo holds the latest. The pair
// is immutable and swapped whole, so readers need no lock, and what a hit
// returns is the float64 zBisect returned for that p.
type zPair struct{ p, z float64 }

var zMemo atomic.Pointer[zPair]

// zBisect inverts the standard normal CDF by bisection.
func zBisect(p float64) float64 {
	lo, hi := -10.0, 10.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if normCDF(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// normCDF is the standard normal cumulative distribution function.
func normCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// NormCDF exposes the standard normal CDF for two-sample tests.
func NormCDF(x float64) float64 { return normCDF(x) }

// ZQuantile exposes the standard normal quantile function.
func ZQuantile(p float64) float64 { return zQuantile(p) }

// TwoSampleZ computes the z statistic and two-sided p-value for the
// difference in means of two samples using a normal approximation
// (Welch-style unequal variances). It is the workhorse of the A/B framework.
func TwoSampleZ(a, b []float64) (z, p float64, err error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, ErrEmpty
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	se := math.Sqrt(va/float64(len(a)) + vb/float64(len(b)))
	if se == 0 {
		if ma == mb {
			return 0, 1, nil
		}
		return math.Inf(1), 0, nil
	}
	z = (ma - mb) / se
	p = 2 * (1 - normCDF(math.Abs(z)))
	return z, p, nil
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Values outside the range
// are clamped into the first/last bin so no observation is lost.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	total  int64
}

// NewHistogram creates a histogram with bins equal-width bins over [lo, hi).
func NewHistogram(lo, hi float64, bins int) (*Histogram, error) {
	if bins <= 0 || hi <= lo {
		return nil, fmt.Errorf("stats: invalid histogram [%v,%v) bins=%d", lo, hi, bins)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	idx := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.Counts) {
		idx = len(h.Counts) - 1
	}
	h.Counts[idx]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int64 { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// QuantileApprox returns an approximate q-quantile from the binned counts.
func (h *Histogram) QuantileApprox(q float64) (float64, error) {
	if h.total == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %v out of [0,1]", q)
	}
	target := int64(q * float64(h.total))
	var cum int64
	for i, c := range h.Counts {
		cum += c
		if cum > target {
			return h.BinCenter(i), nil
		}
	}
	return h.BinCenter(len(h.Counts) - 1), nil
}
