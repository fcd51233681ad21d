package ope_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/harvestd"
	"repro/internal/lbsim"
	"repro/internal/ope"
	"repro/internal/policy"
	"repro/internal/stats"
)

// referenceEstimate is the IPS / clipped IPS / SNIPS core as it stood
// before the estimators folded an ope.Accum: a Welford pass for the plain
// estimators and a two-pass, slice-keeping path for SNIPS. It is kept as
// the reference the Accum-based estimators are held to.
func referenceEstimate(policy core.Policy, data core.Dataset, clip float64, selfNormalize bool) (ope.Estimate, error) {
	if len(data) == 0 {
		return ope.Estimate{}, core.ErrNoData
	}
	if !selfNormalize {
		var (
			acc        stats.Welford
			matches    int
			clipped    int
			maxW       float64
			wsum, w2um float64
		)
		for i := range data {
			d := &data[i]
			pi := core.ActionProb(policy, &d.Context, d.Action)
			w, ok := core.ImportanceWeight(pi, d.Propensity)
			if !ok {
				return ope.Estimate{}, fmt.Errorf("ope: datapoint %d has propensity %v; %w",
					i, d.Propensity, ope.ErrBadPropensity)
			}
			if clip > 0 && w > clip {
				w = clip
				clipped++
			}
			if pi > 0 {
				matches++
			}
			if w > maxW {
				maxW = w
			}
			wsum += w
			w2um += w * w
			acc.Add(w * d.Reward)
		}
		n := float64(len(data))
		ess := 0.0
		if w2um > 0 {
			ess = wsum * wsum / w2um
		}
		return ope.Estimate{
			Value:        acc.Mean(),
			StdErr:       math.Sqrt(acc.Variance() / n),
			N:            len(data),
			Matches:      matches,
			MaxWeight:    maxW,
			ESS:          ess,
			MeanWeight:   wsum / n,
			ClipFraction: float64(clipped) / n,
		}, nil
	}

	var (
		sum     float64 // Σ w_t r_t
		wsum    float64 // Σ w_t
		matches int
		clipped int
		maxW    float64
		terms   = make([]float64, 0, len(data)) // w_t r_t
		weights = make([]float64, 0, len(data))
	)
	for i := range data {
		d := &data[i]
		pi := core.ActionProb(policy, &d.Context, d.Action)
		w, ok := core.ImportanceWeight(pi, d.Propensity)
		if !ok {
			return ope.Estimate{}, fmt.Errorf("ope: datapoint %d has propensity %v; %w",
				i, d.Propensity, ope.ErrBadPropensity)
		}
		if clip > 0 && w > clip {
			w = clip
			clipped++
		}
		if pi > 0 {
			matches++
		}
		if w > maxW {
			maxW = w
		}
		sum += w * d.Reward
		wsum += w
		terms = append(terms, w*d.Reward)
		weights = append(weights, w)
	}
	n := float64(len(data))
	est := ope.Estimate{
		N: len(data), Matches: matches, MaxWeight: maxW,
		MeanWeight: wsum / n, ClipFraction: float64(clipped) / n,
	}
	if wsum == 0 {
		return ope.Estimate{}, fmt.Errorf("ope: %w: no datapoint matches the candidate policy", ope.ErrNoOverlap)
	}
	w2 := 0.0
	for _, wv := range weights {
		w2 += wv * wv
	}
	if w2 > 0 {
		est.ESS = wsum * wsum / w2
	}
	v := sum / wsum
	est.Value = v
	// Delta-method standard error for the ratio estimator:
	// Var(Σwr/Σw) ≈ (1/(n·w̄²)) · Var(w r - v w).
	wbar := wsum / n
	resid := make([]float64, len(data))
	for i := range resid {
		resid[i] = terms[i] - v*weights[i]
	}
	est.StdErr = math.Sqrt(stats.Variance(resid)/n) / wbar
	return est, nil
}

// dyadicCandidate is a context-free stochastic policy over four actions
// with probabilities ½, ¼, ¼ and 0.
type dyadicCandidate struct{}

func (dyadicCandidate) Act(*core.Context) core.Action { return 0 }

func (dyadicCandidate) ActionProb(_ *core.Context, a core.Action) float64 {
	return [...]float64{0.5, 0.25, 0.25, 0}[a]
}

// dyadicLog builds n datapoints, n a power of 4, on which every sum the
// Accum-based estimators and the reference take is exact in float64, so
// the two must agree bit for bit:
//
//   - propensities are 1/2 … 1/16 and the weights π/p dyadicCandidate
//     induces are 0 (the first n/8 datapoints, logged on action 3), 1, 2
//     or 4;
//   - the reference's Welford mean divides by k at datapoint k, which is
//     exact only while every prefix mean of the terms is dyadic, so the
//     prefix means are drawn (a walk in steps of 2⁻⁸, 0 across the
//     unmatched head) and each term is derived from them;
//   - the last term makes Σterm = v·Σw for a dyadic v, so the SNIPS ratio
//     and its residuals are exact, and n = 4^k makes the two SNIPS
//     standard-error formulas round alike.
//
// The terms are w·r, or min(w, clip)·r when clip > 0 — the terms of the
// estimator the log is built for.
func dyadicLog(n int, clip float64, seed int64) core.Dataset {
	r := stats.NewRand(seed)
	props := [...]float64{0.5, 0.25, 0.125, 0.0625}
	ds := make(core.Dataset, n)
	var sumW, sum, mean float64 // Σw, Σterm and the prefix mean so far
	for i := range ds {
		d := &ds[i]
		d.Context = core.Context{NumActions: 4}
		if i < n/8 {
			d.Action, d.Propensity, d.Reward = 3, props[r.Intn(4)], float64(r.Intn(16))/8
			continue
		}
		d.Action = core.Action(r.Intn(3))
		w := float64(int(1) << r.Intn(3))
		d.Propensity = dyadicCandidate{}.ActionProb(nil, d.Action) / w
		sumW += w
		k := float64(i + 1)
		next := mean + float64(r.Intn(17)-8)/256
		if i == n-1 {
			v := math.Round(sum/sumW*16) / 16
			next = v * sumW / k
		}
		term := k*next - (k-1)*mean
		cw := w
		if clip > 0 {
			cw = min(w, clip)
		}
		d.Reward = term / cw
		sum += term
		mean = next
	}
	return ds
}

// sameEstimate reports the first field on which two estimates differ,
// floats compared by bit pattern, or within tol relative when tol > 0.
// skipESS leaves ESS out.
func sameEstimate(got, want ope.Estimate, tol float64, skipESS bool) (string, bool) {
	if got.N != want.N || got.Matches != want.Matches {
		return "N/Matches", false
	}
	fields := []struct {
		name   string
		g, w   float64
		ignore bool
	}{
		{"Value", got.Value, want.Value, false},
		{"StdErr", got.StdErr, want.StdErr, false},
		{"MaxWeight", got.MaxWeight, want.MaxWeight, false},
		{"MeanWeight", got.MeanWeight, want.MeanWeight, false},
		{"ClipFraction", got.ClipFraction, want.ClipFraction, false},
		{"ESS", got.ESS, want.ESS, skipESS},
	}
	for _, f := range fields {
		if f.ignore {
			continue
		}
		if tol > 0 {
			if math.Abs(f.g-f.w) > tol*math.Max(math.Abs(f.g), math.Abs(f.w)) {
				return f.name, false
			}
		} else if math.Float64bits(f.g) != math.Float64bits(f.w) {
			return f.name, false
		}
	}
	return "", true
}

// estimatorCase pairs an estimator with the reference call it replaced.
type estimatorCase struct {
	est           ope.Estimator
	clip          float64
	selfNormalize bool
}

func estimatorCases(clip float64) []estimatorCase {
	return []estimatorCase{
		{ope.IPS{}, 0, false},
		{ope.ClippedIPS{Max: clip}, clip, false},
		{ope.SNIPS{}, 0, true},
	}
}

// TestEstimatorsMatchReferenceOnDyadicData: on a dyadic log every field
// of IPS, ClippedIPS and SNIPS equals the reference's bit for bit — for
// clipped IPS on a log built for its clipped terms, with ESS left to
// TestClippedIPSESSIsRawKish.
func TestEstimatorsMatchReferenceOnDyadicData(t *testing.T) {
	pol := dyadicCandidate{}
	for seed := int64(1); seed <= 5; seed++ {
		for _, n := range []int{64, 1024, 4096} {
			plain, clipped := dyadicLog(n, 0, seed), dyadicLog(n, 2, seed)
			for _, c := range []struct {
				name   string
				est    ope.Estimator
				data   core.Dataset
				clip   float64
				snips  bool
				unclip bool
			}{
				{"ips", ope.IPS{}, plain, 0, false, false},
				{"ips-clip0", ope.ClippedIPS{}, plain, 0, false, false},
				{"snips", ope.SNIPS{}, plain, 0, true, false},
				{"ips-clip2", ope.ClippedIPS{Max: 2}, clipped, 2, false, true},
			} {
				got, err := c.est.Estimate(pol, c.data)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceEstimate(pol, c.data, c.clip, c.snips)
				if err != nil {
					t.Fatal(err)
				}
				if f, ok := sameEstimate(got, want, 0, c.unclip); !ok {
					t.Fatalf("%s seed %d n %d: %s differs\n got %+v\nwant %+v", c.name, seed, n, f, got, want)
				}
				if got.Matches == got.N || got.StdErr == 0 || (c.unclip && got.ClipFraction == 0) {
					t.Fatalf("%s seed %d n %d: degenerate log: %+v", c.name, seed, n, got)
				}
			}
		}
	}
}

// seededLog is a randomized load-balancer log with non-dyadic rewards and
// propensities (1/3, and 0.05 a quarter of the time so clipping bites).
func seededLog(n int, seed int64) core.Dataset {
	r := stats.NewRand(seed)
	ds := make(core.Dataset, n)
	for i := range ds {
		conns := []int{r.Intn(10), r.Intn(10), r.Intn(10)}
		a := core.Action(r.Intn(3))
		p := 1.0 / 3
		if r.Intn(4) == 0 {
			p = 0.05
		}
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     a,
			Reward:     0.1 + 0.01*float64(conns[a]) + 0.02*r.Float64(),
			Propensity: p,
		}
	}
	return ds
}

// TestEstimatorsMatchReferenceOnSeededData: on seeded non-dyadic logs the
// estimators agree with the reference within 1e-12 relative, for a
// deterministic and a stochastic candidate.
func TestEstimatorsMatchReferenceOnSeededData(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		ds := seededLog(3000, seed)
		for _, pol := range []core.Policy{lbsim.LeastLoaded{}, policy.UniformRandom{}} {
			for _, c := range estimatorCases(5) {
				got, err := c.est.Estimate(pol, ds)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceEstimate(pol, ds, c.clip, c.selfNormalize)
				if err != nil {
					t.Fatal(err)
				}
				if f, ok := sameEstimate(got, want, 1e-12, c.clip > 0); !ok {
					t.Fatalf("%s seed %d %T: %s differs\n got %+v\nwant %+v", c.est.Name(), seed, pol, f, got, want)
				}
			}
		}
	}
}

// TestClippedIPSESSIsRawKish pins ClippedIPS's ESS: Kish's (Σw)²/Σw² over
// the raw weights — the same figure IPS and /diagnostics report — not the
// reference's ESS over the clipped weights.
func TestClippedIPSESSIsRawKish(t *testing.T) {
	ds := seededLog(3000, 3)
	pol := lbsim.LeastLoaded{}
	clipped, err := (ope.ClippedIPS{Max: 5}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := (ope.IPS{}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	var sumW, sumWSq float64
	for i := range ds {
		w := core.ActionProb(pol, &ds[i].Context, ds[i].Action) / ds[i].Propensity
		sumW += w
		sumWSq += w * w
	}
	if want := sumW * sumW / sumWSq; clipped.ESS != want || plain.ESS != want {
		t.Errorf("clipped ESS %v, ips ESS %v, want raw Kish %v", clipped.ESS, plain.ESS, want)
	}
	old, err := referenceEstimate(pol, ds, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if clipped.ClipFraction == 0 || old.ESS == clipped.ESS {
		t.Errorf("clipping did not bite: clip fraction %v, post-clip ESS %v", clipped.ClipFraction, old.ESS)
	}
}

// TestEstimatorErrorsMatchReference: the same error, with the same text,
// for an empty log, a zero / negative / NaN propensity at the index the
// reference names, and SNIPS without overlap.
func TestEstimatorErrorsMatchReference(t *testing.T) {
	pol := lbsim.LeastLoaded{}
	for _, c := range estimatorCases(5) {
		_, got := c.est.Estimate(pol, nil)
		_, want := referenceEstimate(pol, nil, c.clip, c.selfNormalize)
		if !errors.Is(got, core.ErrNoData) || !errors.Is(want, core.ErrNoData) {
			t.Errorf("%s on no data: err %v, reference %v", c.est.Name(), got, want)
		}
		for _, bad := range []float64{0, -0.5, math.NaN()} {
			for _, at := range []int{0, 17, 99} {
				ds := seededLog(100, 4)
				ds[99].Propensity = -1 // a later bad datapoint is not the one named
				ds[at].Propensity = bad
				_, got := c.est.Estimate(pol, ds)
				_, want := referenceEstimate(pol, ds, c.clip, c.selfNormalize)
				if got == nil || want == nil || got.Error() != want.Error() || !errors.Is(got, ope.ErrBadPropensity) {
					t.Errorf("%s, propensity %v at %d: err %v, reference %v", c.est.Name(), bad, at, got, want)
				}
			}
		}
	}
	// Action 3 does not exist in a 3-upstream context: nothing matches.
	never := core.PolicyFunc(func(*core.Context) core.Action { return 3 })
	ds := seededLog(100, 5)
	for _, c := range estimatorCases(5) {
		got, gerr := c.est.Estimate(never, ds)
		want, werr := referenceEstimate(never, ds, c.clip, c.selfNormalize)
		if c.selfNormalize {
			if gerr == nil || werr == nil || gerr.Error() != werr.Error() || !errors.Is(gerr, ope.ErrNoOverlap) {
				t.Errorf("snips without overlap: err %v, reference %v", gerr, werr)
			}
			continue
		}
		if gerr != nil || werr != nil {
			t.Fatalf("%s without overlap: err %v, reference %v", c.est.Name(), gerr, werr)
		}
		if f, ok := sameEstimate(got, want, 0, false); !ok {
			t.Errorf("%s without overlap: %s differs: %+v vs %+v", c.est.Name(), f, got, want)
		}
	}
}

// TestOneFoldThreeWays folds one dyadic log three ways — the batch
// estimators, harvestd's Registry at 1 and 4 workers, and 5 shards merged
// in every one of the 120 orders — and requires identical estimates: the
// batch values bit for bit, the daemon's /estimates and /diagnostics rows
// byte for byte.
func TestOneFoldThreeWays(t *testing.T) {
	const (
		clip  = 2.0
		delta = 0.05
		name  = "cand"
	)
	ds := dyadicLog(4096, 0, 7)
	pol := dyadicCandidate{}

	// (b) The daemon's registry, at 1 and at 4 workers.
	var (
		rows [][]byte
		pe   ope.PolicyEstimate
	)
	for _, workers := range []int{1, 4} {
		reg, err := harvestd.NewRegistry(workers, clip)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(name, pol); err != nil {
			t.Fatal(err)
		}
		for at, chunk := 0, 0; at < len(ds); at, chunk = at+97, chunk+1 {
			reg.FoldBatch(chunk%workers, ds[at:min(at+97, len(ds))])
		}
		d, err := harvestd.New(harvestd.Config{Workers: workers}, reg)
		if err != nil {
			t.Fatal(err)
		}
		snap := d.StateSnapshot()
		pe = snap.Estimates(delta)[0]
		rows = append(rows, mustJSON(t, pe, snap.Diagnostics()[0]))
	}
	if string(rows[0]) != string(rows[1]) {
		t.Fatalf("registry rows differ across worker counts:\n%s\n%s", rows[0], rows[1])
	}

	// (a) The batch estimators read the same values off their own fold.
	for _, c := range []struct {
		est ope.Estimator
		ev  ope.EstimatorValue
	}{
		{ope.IPS{}, pe.IPS},
		{ope.ClippedIPS{Max: clip}, pe.ClippedIPS},
		{ope.SNIPS{}, pe.SNIPS},
	} {
		e, err := c.est.Estimate(pol, ds)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(e.Value) != math.Float64bits(c.ev.Value) ||
			math.Float64bits(e.StdErr) != math.Float64bits(c.ev.StdErr) ||
			int64(e.N) != pe.N || float64(e.Matches)/float64(e.N) != pe.MatchRate {
			t.Errorf("%s: batch %+v, registry %+v (n %d, match rate %v)", c.est.Name(), e, c.ev, pe.N, pe.MatchRate)
		}
	}

	// (c) Five shards folded apart, merged in every order.
	var shards [5]ope.Accum
	for i := range ds {
		d := &ds[i]
		shards[i*5/len(ds)].Fold(pol.ActionProb(&d.Context, d.Action), d.Propensity, d.Reward, clip, harvestd.DefaultPropensityFloor)
	}
	orders := 0
	permute([]int{0, 1, 2, 3, 4}, 0, func(order []int) {
		orders++
		var merged ope.Accum
		for _, s := range order {
			merged.Merge(&shards[s])
		}
		got := mustJSON(t, merged.Estimate(name, delta), merged.Diagnostics(name))
		if string(got) != string(rows[0]) {
			t.Fatalf("merge order %v:\n got %s\nwant %s", order, got, rows[0])
		}
	})
	if orders != 120 {
		t.Fatalf("visited %d merge orders, want 120", orders)
	}
}

// mustJSON renders one policy's estimate and diagnostics rows as the
// daemon serves them.
func mustJSON(t *testing.T, pe ope.PolicyEstimate, pd ope.PolicyDiagnostics) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Estimate    ope.PolicyEstimate
		Diagnostics ope.PolicyDiagnostics
	}{pe, pd})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// permute calls visit with every ordering of xs[k:] after xs[:k].
func permute(xs []int, k int, visit func([]int)) {
	if k == len(xs) {
		visit(xs)
		return
	}
	for i := k; i < len(xs); i++ {
		xs[k], xs[i] = xs[i], xs[k]
		permute(xs, k+1, visit)
		xs[k], xs[i] = xs[i], xs[k]
	}
}

// TestEstimatorsDoNotAllocate pins the batch estimators' single fold at
// zero allocations over a 4096-datapoint log with an ActionProber
// candidate: they sit in the inner loop of the policy-class sweeps.
func TestEstimatorsDoNotAllocate(t *testing.T) {
	ds := seededLog(4096, 6)
	var pol core.Policy = policy.UniformRandom{}
	for _, est := range []ope.Estimator{ope.IPS{}, ope.ClippedIPS{Max: 5}, ope.SNIPS{}} {
		var err error
		if allocs := testing.AllocsPerRun(10, func() { _, err = est.Estimate(pol, ds) }); allocs != 0 {
			t.Errorf("%s: %v allocations per Estimate, want 0", est.Name(), allocs)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}
