package ope

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// trueReward is the deterministic synthetic reward surface used throughout
// these tests: reward of action a in context x depends on both.
func trueReward(x core.Vector, a core.Action) float64 {
	return 0.5 + 0.3*x[0]*float64(a) - 0.1*float64(a)
}

// genUniformLog generates n exploration datapoints logged by a uniform
// random policy over k actions, with deterministic rewards.
func genUniformLog(r *rand.Rand, n, k int) core.Dataset {
	ds := make(core.Dataset, n)
	for i := range ds {
		x := core.Vector{r.Float64()}
		a := core.Action(r.Intn(k))
		ds[i] = core.Datapoint{
			Context:    core.Context{Features: x, NumActions: k},
			Action:     a,
			Reward:     trueReward(x, a),
			Propensity: 1.0 / float64(k),
		}
	}
	return ds
}

// truth computes the exact expected reward of a deterministic policy under
// the uniform context distribution by Monte Carlo with a fresh stream.
func truth(policy core.Policy, k int) float64 {
	r := stats.NewRand(999)
	var w stats.Welford
	for i := 0; i < 200000; i++ {
		x := core.Vector{r.Float64()}
		ctx := core.Context{Features: x, NumActions: k}
		w.Add(trueReward(x, policy.Act(&ctx)))
	}
	return w.Mean()
}

// always returns a constant-action policy.
func always(a core.Action) core.Policy {
	return core.PolicyFunc(func(*core.Context) core.Action { return a })
}

// threshold policies switch action on a feature threshold.
func thresholdPolicy(cut float64, below, above core.Action) core.Policy {
	return core.PolicyFunc(func(ctx *core.Context) core.Action {
		if ctx.Features[0] < cut {
			return below
		}
		return above
	})
}

func TestIPSUnbiasedOnConstantPolicy(t *testing.T) {
	r := stats.NewRand(1)
	ds := genUniformLog(r, 50000, 4)
	for a := core.Action(0); a < 4; a++ {
		est, err := (IPS{}).Estimate(always(a), ds)
		if err != nil {
			t.Fatal(err)
		}
		want := truth(always(a), 4)
		if math.Abs(est.Value-want) > 3*est.StdErr+0.01 {
			t.Errorf("action %d: ips = %v, truth = %v (se %v)", a, est.Value, want, est.StdErr)
		}
	}
}

func TestIPSUnbiasedOnContextualPolicy(t *testing.T) {
	r := stats.NewRand(2)
	ds := genUniformLog(r, 50000, 4)
	pol := thresholdPolicy(0.5, 0, 3)
	est, err := (IPS{}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	want := truth(pol, 4)
	if math.Abs(est.Value-want) > 3*est.StdErr+0.01 {
		t.Errorf("ips = %v, truth = %v", est.Value, want)
	}
}

func TestIPSMatchesCount(t *testing.T) {
	r := stats.NewRand(3)
	ds := genUniformLog(r, 10000, 4)
	est, err := (IPS{}).Estimate(always(2), ds)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform logging over 4 actions: ~1/4 of datapoints match.
	frac := float64(est.Matches) / float64(est.N)
	if math.Abs(frac-0.25) > 0.02 {
		t.Errorf("match fraction = %v, want ≈0.25", frac)
	}
	if est.MaxWeight != 4 {
		t.Errorf("max weight = %v, want 4", est.MaxWeight)
	}
}

func TestIPSEmptyData(t *testing.T) {
	_, err := (IPS{}).Estimate(always(0), nil)
	if !errors.Is(err, core.ErrNoData) {
		t.Errorf("err = %v, want ErrNoData", err)
	}
}

func TestIPSBadPropensity(t *testing.T) {
	ds := core.Dataset{{
		Context:    core.Context{NumActions: 2},
		Action:     0,
		Propensity: 0,
	}}
	if _, err := (IPS{}).Estimate(always(0), ds); err == nil {
		t.Error("zero propensity should fail")
	}
}

func TestClippedIPSReducesMaxWeight(t *testing.T) {
	r := stats.NewRand(4)
	// Log with very skewed propensities.
	ds := make(core.Dataset, 5000)
	for i := range ds {
		x := core.Vector{r.Float64()}
		var a core.Action
		var p float64
		if r.Float64() < 0.95 {
			a, p = 0, 0.95
		} else {
			a, p = 1, 0.05
		}
		ds[i] = core.Datapoint{
			Context:    core.Context{Features: x, NumActions: 2},
			Action:     a,
			Reward:     trueReward(x, a),
			Propensity: p,
		}
	}
	plain, err := (IPS{}).Estimate(always(1), ds)
	if err != nil {
		t.Fatal(err)
	}
	clipped, err := (ClippedIPS{Max: 5}).Estimate(always(1), ds)
	if err != nil {
		t.Fatal(err)
	}
	if plain.MaxWeight <= 5 {
		t.Fatalf("test setup broken: plain max weight %v", plain.MaxWeight)
	}
	if clipped.MaxWeight > 5 {
		t.Errorf("clipped max weight = %v, want <= 5", clipped.MaxWeight)
	}
	if clipped.StdErr >= plain.StdErr {
		t.Errorf("clipping should reduce variance: %v >= %v", clipped.StdErr, plain.StdErr)
	}
	// Positive rewards: clipping can only pull the estimate down.
	if clipped.Value > plain.Value+1e-12 {
		t.Errorf("clipping raised the estimate: %v > %v", clipped.Value, plain.Value)
	}
}

func TestClippedIPSNoClipEqualsIPS(t *testing.T) {
	r := stats.NewRand(5)
	ds := genUniformLog(r, 1000, 3)
	a, _ := (IPS{}).Estimate(always(1), ds)
	b, _ := (ClippedIPS{Max: 0}).Estimate(always(1), ds)
	if a.Value != b.Value || a.StdErr != b.StdErr {
		t.Error("Max<=0 should be identical to plain IPS")
	}
}

func TestSNIPSTranslationInvariance(t *testing.T) {
	r := stats.NewRand(6)
	ds := genUniformLog(r, 5000, 3)
	shifted := make(core.Dataset, len(ds))
	copy(shifted, ds)
	for i := range shifted {
		shifted[i].Reward += 10
	}
	pol := thresholdPolicy(0.3, 1, 2)
	a, err := (SNIPS{}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (SNIPS{}).Estimate(pol, shifted)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((b.Value-a.Value)-10) > 1e-9 {
		t.Errorf("snips should shift exactly by 10: %v -> %v", a.Value, b.Value)
	}
	// Plain IPS does NOT have this property under partial matching.
	c, _ := (IPS{}).Estimate(pol, ds)
	d, _ := (IPS{}).Estimate(pol, shifted)
	if math.Abs((d.Value-c.Value)-10) < 1e-9 {
		t.Error("expected plain IPS to violate translation invariance on this data")
	}
}

func TestSNIPSNoOverlap(t *testing.T) {
	ds := core.Dataset{{
		Context:    core.Context{NumActions: 3},
		Action:     0,
		Propensity: 1.0 / 3,
	}}
	_, err := (SNIPS{}).Estimate(always(1), ds)
	if !errors.Is(err, ErrNoOverlap) {
		t.Errorf("err = %v, want ErrNoOverlap", err)
	}
}

func TestSNIPSLowerVarianceThanIPS(t *testing.T) {
	r := stats.NewRand(7)
	ds := genUniformLog(r, 20000, 8)
	pol := always(3)
	ips, _ := (IPS{}).Estimate(pol, ds)
	snips, _ := (SNIPS{}).Estimate(pol, ds)
	if snips.StdErr >= ips.StdErr {
		t.Errorf("snips se %v should beat ips se %v on 8 actions", snips.StdErr, ips.StdErr)
	}
	want := truth(pol, 8)
	if math.Abs(snips.Value-want) > 0.05 {
		t.Errorf("snips = %v, truth = %v", snips.Value, want)
	}
}

// perfectModel implements RewardModel with the true reward surface.
type perfectModel struct{}

func (perfectModel) Predict(ctx *core.Context, a core.Action) float64 {
	return trueReward(ctx.Features, a)
}

// biasedModel is systematically wrong by +0.2.
type biasedModel struct{}

func (biasedModel) Predict(ctx *core.Context, a core.Action) float64 {
	return trueReward(ctx.Features, a) + 0.2
}

func TestDirectMethodExactWithPerfectModel(t *testing.T) {
	r := stats.NewRand(8)
	ds := genUniformLog(r, 20000, 4)
	pol := thresholdPolicy(0.5, 0, 3)
	est, err := (DirectMethod{Model: perfectModel{}}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	want := truth(pol, 4)
	if math.Abs(est.Value-want) > 0.01 {
		t.Errorf("dm = %v, truth = %v", est.Value, want)
	}
}

func TestDirectMethodInheritsModelBias(t *testing.T) {
	r := stats.NewRand(9)
	ds := genUniformLog(r, 20000, 4)
	pol := always(1)
	est, _ := (DirectMethod{Model: biasedModel{}}).Estimate(pol, ds)
	want := truth(pol, 4)
	if math.Abs(est.Value-want-0.2) > 0.01 {
		t.Errorf("dm bias should be +0.2: est %v truth %v", est.Value, want)
	}
}

func TestDirectMethodRequiresModel(t *testing.T) {
	ds := core.Dataset{{Context: core.Context{NumActions: 2}, Propensity: 0.5}}
	if _, err := (DirectMethod{}).Estimate(always(0), ds); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := (DirectMethod{Model: perfectModel{}}).Estimate(always(0), nil); !errors.Is(err, core.ErrNoData) {
		t.Error("empty data should fail with ErrNoData")
	}
}

func TestDoublyRobustCorrectsBiasedModel(t *testing.T) {
	r := stats.NewRand(10)
	ds := genUniformLog(r, 50000, 4)
	pol := thresholdPolicy(0.4, 1, 2)
	want := truth(pol, 4)
	dm, _ := (DirectMethod{Model: biasedModel{}}).Estimate(pol, ds)
	dr, err := (DoublyRobust{Model: biasedModel{}}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dm.Value-want) < 0.15 {
		t.Fatalf("test setup broken: dm should be biased, got %v vs %v", dm.Value, want)
	}
	if math.Abs(dr.Value-want) > 3*dr.StdErr+0.01 {
		t.Errorf("dr = %v, truth = %v (se %v)", dr.Value, want, dr.StdErr)
	}
}

func TestDoublyRobustLowerVarianceWithGoodModel(t *testing.T) {
	r := stats.NewRand(11)
	ds := genUniformLog(r, 20000, 6)
	pol := always(5)
	ips, _ := (IPS{}).Estimate(pol, ds)
	dr, _ := (DoublyRobust{Model: perfectModel{}}).Estimate(pol, ds)
	if dr.StdErr >= ips.StdErr/2 {
		t.Errorf("dr with perfect model should slash variance: %v vs ips %v", dr.StdErr, ips.StdErr)
	}
}

func TestDoublyRobustValidation(t *testing.T) {
	if _, err := (DoublyRobust{Model: perfectModel{}}).Estimate(always(0), nil); !errors.Is(err, core.ErrNoData) {
		t.Error("empty data should fail")
	}
	ds := core.Dataset{{Context: core.Context{Features: core.Vector{0}, NumActions: 2}, Propensity: 0.5}}
	if _, err := (DoublyRobust{}).Estimate(always(0), ds); err == nil {
		t.Error("nil model should fail")
	}
	bad := core.Dataset{{Context: core.Context{Features: core.Vector{0}, NumActions: 2}, Propensity: 0}}
	if _, err := (DoublyRobust{Model: perfectModel{}}).Estimate(always(0), bad); err == nil {
		t.Error("zero propensity should fail")
	}
}

func TestEstimatorNames(t *testing.T) {
	for _, pair := range []struct {
		got, want string
	}{
		{IPS{}.Name(), "ips"},
		{SNIPS{}.Name(), "snips"},
		{DirectMethod{}.Name(), "dm"},
		{DoublyRobust{}.Name(), "dr"},
		{TrajectoryIS{}.Name(), "traj-is"},
	} {
		if pair.got != pair.want {
			t.Errorf("name = %q, want %q", pair.got, pair.want)
		}
	}
	if (ClippedIPS{Max: 10}).Name() == "" {
		t.Error("clipped name empty")
	}
}

func TestEstimateConfidenceInterval(t *testing.T) {
	e := Estimate{Value: 1, StdErr: 0.1, N: 100}
	iv := e.ConfidenceInterval(0.05)
	if !iv.Contains(1) {
		t.Error("CI must contain the point")
	}
	if math.Abs(iv.Width()-2*1.96*0.1) > 0.01 {
		t.Errorf("95%% CI width = %v, want ≈%v", iv.Width(), 2*1.96*0.1)
	}
	if (Estimate{Value: 2}).ConfidenceInterval(0.05).Width() != 0 {
		t.Error("zero stderr should give zero-width CI")
	}
}

func TestEstimateString(t *testing.T) {
	if (Estimate{Value: 1.5, N: 10}).String() == "" {
		t.Error("String should be non-empty")
	}
}

func TestEffectiveSampleSize(t *testing.T) {
	// On-policy (uniform candidate over uniform logging): every weight is
	// 1, so ESS = N exactly.
	r := stats.NewRand(50)
	ds := genUniformLog(r, 5000, 4)
	onPolicy, err := (IPS{}).Estimate(uniformCandidate{k: 4}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(onPolicy.ESS-float64(onPolicy.N)) > 1e-6 {
		t.Errorf("on-policy ESS = %v, want N = %d", onPolicy.ESS, onPolicy.N)
	}
	// A deterministic candidate over K=4 uniform logging matches 1/4 of
	// the data with weight 4: ESS = (N·1)²/(N/4·16) = N/4.
	det, err := (IPS{}).Estimate(always(2), ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(det.ESS-float64(det.N)/4)/float64(det.N) > 0.05 {
		t.Errorf("deterministic ESS = %v, want ≈N/4 = %v", det.ESS, float64(det.N)/4)
	}
	// SNIPS reports the same diagnostic.
	sn, err := (SNIPS{}).Estimate(always(2), ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sn.ESS-det.ESS) > 1e-6 {
		t.Errorf("snips ESS %v != ips ESS %v", sn.ESS, det.ESS)
	}
}

// uniformCandidate is an allocation-free uniform stochastic policy.
type uniformCandidate struct{ k int }

func (u uniformCandidate) Act(ctx *core.Context) core.Action { return 0 }
func (u uniformCandidate) Distribution(ctx *core.Context) []float64 {
	d := make([]float64, u.k)
	for i := range d {
		d[i] = 1 / float64(u.k)
	}
	return d
}

// TestEstimateWeightDiagnostics checks the MeanWeight/ClipFraction health
// fields against hand-computable values on a uniform log.
func TestEstimateWeightDiagnostics(t *testing.T) {
	r := stats.NewRand(7)
	const k = 4
	ds := genUniformLog(r, 8000, k)

	// A deterministic candidate over uniform-1/k logging has weight k on
	// matches and 0 elsewhere, so the mean weight is k·matchRate ≈ 1.
	est, err := (IPS{}).Estimate(always(1), ds)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := float64(k) * float64(est.Matches) / float64(est.N)
	if math.Abs(est.MeanWeight-wantMean) > 1e-9 {
		t.Errorf("mean weight = %v, want %v", est.MeanWeight, wantMean)
	}
	if est.ClipFraction != 0 {
		t.Errorf("unclipped estimator reports clip fraction %v", est.ClipFraction)
	}

	// Clipping at 2 hits exactly the matched datapoints (weight 4 > 2),
	// and the post-clip mean weight shrinks accordingly.
	cl, err := (ClippedIPS{Max: 2}).Estimate(always(1), ds)
	if err != nil {
		t.Fatal(err)
	}
	wantFrac := float64(cl.Matches) / float64(cl.N)
	if math.Abs(cl.ClipFraction-wantFrac) > 1e-9 {
		t.Errorf("clip fraction = %v, want %v", cl.ClipFraction, wantFrac)
	}
	if math.Abs(cl.MeanWeight-2*wantFrac) > 1e-9 {
		t.Errorf("clipped mean weight = %v, want %v", cl.MeanWeight, 2*wantFrac)
	}
	if cl.MaxWeight != 2 {
		t.Errorf("clipped max weight = %v, want 2", cl.MaxWeight)
	}

	// SNIPS carries the same raw-weight diagnostics as IPS.
	sn, err := (SNIPS{}).Estimate(always(1), ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sn.MeanWeight-est.MeanWeight) > 1e-9 || sn.ClipFraction != 0 {
		t.Errorf("snips diagnostics %v/%v != ips %v/0", sn.MeanWeight, sn.ClipFraction, est.MeanWeight)
	}

	// DR now reports ESS over its correction weights, matching IPS's.
	dr := DoublyRobust{Model: nilModel{}}
	de, err := dr.Estimate(always(1), ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(de.ESS-est.ESS) > 1e-6 {
		t.Errorf("dr ESS = %v, want %v", de.ESS, est.ESS)
	}
	if math.Abs(de.MeanWeight-est.MeanWeight) > 1e-9 {
		t.Errorf("dr mean weight = %v, want %v", de.MeanWeight, est.MeanWeight)
	}
}

// nilModel predicts zero reward everywhere (reduces DR to IPS).
type nilModel struct{}

func (nilModel) Predict(*core.Context, core.Action) float64 { return 0 }
