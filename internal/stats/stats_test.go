package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

func TestMeanBasic(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{}, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// population variance is 4; sample (n-1) variance is 32/7.
	want := 32.0 / 7.0
	if got := Variance(xs); !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if v := Variance(nil); v != 0 {
		t.Errorf("Variance(nil) = %v, want 0", v)
	}
	if v := Variance([]float64{3}); v != 0 {
		t.Errorf("Variance(single) = %v, want 0", v)
	}
}

func TestQuantileEndpoints(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	lo, err := Quantile(xs, 0)
	if err != nil || lo != 1 {
		t.Fatalf("Quantile(0) = %v, %v; want 1", lo, err)
	}
	hi, err := Quantile(xs, 1)
	if err != nil || hi != 9 {
		t.Fatalf("Quantile(1) = %v, %v; want 9", hi, err)
	}
	med, err := Quantile(xs, 0.5)
	if err != nil || med != 5 {
		t.Fatalf("Quantile(0.5) = %v, %v; want 5", med, err)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, err := Quantile(xs, 0.25)
	if err != nil || !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("Quantile(0.25) = %v, %v; want 2.5", got, err)
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Errorf("empty sample: err = %v, want ErrEmpty", err)
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Error("q=1.5 should error")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Error("q=NaN should error")
	}
}

func TestQuantilesSortedMatchesQuantile(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	got, err := QuantilesSorted(xs, 0.05, 0.5, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range []float64{0.05, 0.5, 0.95} {
		want, _ := Quantile(xs, q)
		if !almostEqual(got[i], want, 1e-12) {
			t.Errorf("QuantilesSorted[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := NewRand(1)
	xs := make([]float64, 1000)
	var w Welford
	for i := range xs {
		xs[i] = r.NormFloat64()*3 + 7
		w.Add(xs[i])
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-9) {
		t.Errorf("Welford mean %v != batch %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-9) {
		t.Errorf("Welford var %v != batch %v", w.Variance(), Variance(xs))
	}
	if w.N() != 1000 {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordMinMax(t *testing.T) {
	var w Welford
	for _, x := range []float64{3, -2, 8, 0} {
		w.Add(x)
	}
	if w.Min() != -2 || w.Max() != 8 {
		t.Errorf("min/max = %v/%v, want -2/8", w.Min(), w.Max())
	}
}

func TestHoeffdingRadiusShrinks(t *testing.T) {
	r1 := HoeffdingRadius(100, 0, 1, 0.05)
	r2 := HoeffdingRadius(400, 0, 1, 0.05)
	if !(r2 < r1) {
		t.Errorf("radius should shrink with n: %v !< %v", r2, r1)
	}
	// Quadrupling n halves the radius.
	if !almostEqual(r2, r1/2, 1e-12) {
		t.Errorf("4x n should halve radius: %v vs %v", r2, r1/2)
	}
}

func TestHoeffdingRadiusDegenerate(t *testing.T) {
	if !math.IsInf(HoeffdingRadius(0, 0, 1, 0.05), 1) {
		t.Error("n=0 should be +Inf")
	}
	if !math.IsInf(HoeffdingRadius(10, 1, 1, 0.05), 1) {
		t.Error("hi<=lo should be +Inf")
	}
	if !math.IsInf(HoeffdingRadius(10, 0, 1, 0), 1) {
		t.Error("delta=0 should be +Inf")
	}
}

func TestEmpiricalBernsteinBeatsHoeffdingAtLowVariance(t *testing.T) {
	// With tiny variance the Bernstein radius should be far below
	// Hoeffding's range-driven radius for large-range variables.
	n, v, rng, delta := 10000, 0.0001, 25.0, 0.05
	eb := EmpiricalBernsteinRadius(n, v, rng, delta)
	h := HoeffdingRadius(n, 0, rng, delta)
	if !(eb < h/10) {
		t.Errorf("expected Bernstein %v << Hoeffding %v", eb, h)
	}
}

func TestZQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.95, 1.644854},
		{0.025, -1.959964},
	}
	for _, c := range cases {
		if got := zQuantile(c.p); !almostEqual(got, c.want, 1e-4) {
			t.Errorf("zQuantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(zQuantile(0)) || !math.IsNaN(zQuantile(1)) {
		t.Error("zQuantile should be NaN at 0 and 1")
	}
}

// TestZQuantileMemoBitEqual pins the memo to the bisection: a miss, a hit
// and a hit after another p was cached all return the float64 zBisect
// returns, so no served interval moves by an ulp.
func TestZQuantileMemoBitEqual(t *testing.T) {
	deltas := []float64{0.001, 0.01, 0.05, 0.1, 0.5}
	for round := 0; round < 2; round++ {
		for _, delta := range deltas {
			p := 1 - delta/2
			want := math.Float64bits(zBisect(p))
			for call := 0; call < 3; call++ {
				if got := math.Float64bits(zQuantile(p)); got != want {
					t.Fatalf("round %d call %d: zQuantile(%v) = %#x, bisection gives %#x", round, call, p, got, want)
				}
			}
			if got, want := NormalApproxRadius(0.25, delta), zBisect(p)*0.25; got != want {
				t.Errorf("NormalApproxRadius(0.25, %v) = %v, want %v", delta, got, want)
			}
		}
	}
}

// TestZQuantileMemoConcurrent alternates two confidence levels from several
// goroutines, so the one-entry memo is evicted and refilled under readers;
// run with -race.
func TestZQuantileMemoConcurrent(t *testing.T) {
	ps := [2]float64{1 - 0.05/2, 1 - 0.01/2}
	want := [2]float64{zBisect(ps[0]), zBisect(ps[1])}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % 2
				if got := zQuantile(ps[k]); got != want[k] {
					t.Errorf("zQuantile(%v) = %v, want %v", ps[k], got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNormCDFSymmetry(t *testing.T) {
	f := func(x float64) bool {
		x = math.Mod(x, 10)
		return almostEqual(normCDF(x)+normCDF(-x), 1, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTwoSampleZDetectsDifference(t *testing.T) {
	r := NewRand(3)
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 0.5
	}
	z, p, err := TwoSampleZ(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 0.001 {
		t.Errorf("p = %v, expected strong significance", p)
	}
	if z >= 0 {
		t.Errorf("z = %v, expected negative (a < b)", z)
	}
}

func TestTwoSampleZNull(t *testing.T) {
	a := []float64{1, 1, 1}
	b := []float64{1, 1, 1}
	z, p, err := TwoSampleZ(a, b)
	if err != nil || z != 0 || p != 1 {
		t.Errorf("identical constant samples: z=%v p=%v err=%v", z, p, err)
	}
}

func TestTwoSampleZErrEmpty(t *testing.T) {
	if _, _, err := TwoSampleZ([]float64{1}, []float64{1, 2}); err != ErrEmpty {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{Point: 5, Lo: 4, Hi: 7}
	if iv.Width() != 3 {
		t.Errorf("Width = %v", iv.Width())
	}
	if !iv.Contains(4) || !iv.Contains(7) || iv.Contains(3.9) {
		t.Error("Contains misbehaves at boundaries")
	}
	if iv.String() == "" {
		t.Error("String should be non-empty")
	}
}

// Property: quantiles are monotone in q for any sample.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1, err1 := Quantile(xs, 0.25)
		q2, err2 := Quantile(xs, 0.75)
		if err1 != nil || err2 != nil {
			return false
		}
		return q1 <= q2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Welford mean always lies within [min, max].
func TestWelfordMeanBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var w Welford
		any := false
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Clamp into a range where the running-mean arithmetic
			// cannot overflow; huge magnitudes are not interesting here.
			w.Add(math.Mod(v, 1e9))
			any = true
		}
		if !any {
			return true
		}
		return w.Mean() >= w.Min()-1e-9 && w.Mean() <= w.Max()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
