package learn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestSolveKnownSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// 2x+y=5, x+3y=10 → x=1, y=3.
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 3 || x[1] != 2 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := [][]float64{{1, 2}, {2, 4}}
	b := []float64{1, 2}
	if _, err := solve(a, b); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	if _, err := solve([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("mismatched dims should fail")
	}
	if _, err := solve(nil, nil); err == nil {
		t.Error("empty system should fail")
	}
}

func TestRidgeRecoversLinearFunction(t *testing.T) {
	r := stats.NewRand(1)
	// y = 3x0 - 2x1 + 5 with tiny noise.
	xs := make([]core.Vector, 500)
	ys := make([]float64, 500)
	for i := range xs {
		xs[i] = core.Vector{r.Float64() * 10, r.Float64() * 10}
		ys[i] = 3*xs[i][0] - 2*xs[i][1] + 5 + r.NormFloat64()*0.01
	}
	w, err := Ridge{Lambda: 1e-6}.Fit(xs, ys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w[0]-3) > 0.01 || math.Abs(w[1]+2) > 0.01 || math.Abs(w[2]-5) > 0.05 {
		t.Errorf("w = %v, want [3 -2 5]", w)
	}
	pred := PredictLinear(w, core.Vector{1, 1})
	if math.Abs(pred-6) > 0.05 {
		t.Errorf("predict(1,1) = %v, want 6", pred)
	}
}

func TestRidgeWeightedFit(t *testing.T) {
	// Two clusters with conflicting labels; weights select the first.
	xs := []core.Vector{{1}, {1}, {1}, {1}}
	ys := []float64{10, 10, 0, 0}
	ws := []float64{1, 1, 0, 0}
	w, err := Ridge{Lambda: 1e-6}.Fit(xs, ys, ws)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(PredictLinear(w, core.Vector{1})-10) > 0.01 {
		t.Errorf("weighted fit should predict 10, got %v", PredictLinear(w, core.Vector{1}))
	}
}

func TestRidgeValidation(t *testing.T) {
	if _, err := (Ridge{}).Fit(nil, nil, nil); !errors.Is(err, core.ErrNoData) {
		t.Error("empty should fail with ErrNoData")
	}
	if _, err := (Ridge{}).Fit([]core.Vector{{1}}, []float64{1, 2}, nil); err == nil {
		t.Error("target length mismatch should fail")
	}
	if _, err := (Ridge{}).Fit([]core.Vector{{1}}, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("weight length mismatch should fail")
	}
}

func TestRidgeRaggedRows(t *testing.T) {
	// Rows of different lengths are padded with zeros.
	xs := []core.Vector{{1, 2}, {3}}
	ys := []float64{1, 2}
	if _, err := (Ridge{Lambda: 0.1}).Fit(xs, ys, nil); err != nil {
		t.Fatalf("ragged rows should fit: %v", err)
	}
}

func TestPredictLinearEdges(t *testing.T) {
	if PredictLinear(nil, core.Vector{1}) != 0 {
		t.Error("empty weights predict 0")
	}
	// Bias-only weights.
	if PredictLinear(core.Vector{7}, nil) != 7 {
		t.Error("bias-only should predict the bias")
	}
	// Short input vector.
	if got := PredictLinear(core.Vector{2, 3, 1}, core.Vector{5}); got != 11 {
		t.Errorf("short input: %v, want 2*5+1=11", got)
	}
}

// perActionTruth defines a context-dependent reward per action.
func perActionTruth(x core.Vector, a core.Action) float64 {
	switch a {
	case 0:
		return 1 + 2*x[0]
	case 1:
		return 3 - x[0]
	default:
		return 0.5 * x[0]
	}
}

func genBandit(seed int64, n, k int) core.Dataset {
	r := stats.NewRand(seed)
	ds := make(core.Dataset, n)
	for i := range ds {
		x := core.Vector{r.Float64() * 2}
		a := core.Action(r.Intn(k))
		ds[i] = core.Datapoint{
			Context:    core.Context{Features: x, NumActions: k},
			Action:     a,
			Reward:     perActionTruth(x, a) + r.NormFloat64()*0.01,
			Propensity: 1 / float64(k),
		}
	}
	return ds
}

func TestRewardModelPerAction(t *testing.T) {
	ds := genBandit(2, 6000, 3)
	m, err := FitRewardModel(ds, FitOptions{Lambda: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	for _, x0 := range []float64{0.1, 1.0, 1.9} {
		ctx := &core.Context{Features: core.Vector{x0}, NumActions: 3}
		for a := core.Action(0); a < 3; a++ {
			want := perActionTruth(ctx.Features, a)
			if got := m.Predict(ctx, a); math.Abs(got-want) > 0.05 {
				t.Errorf("predict(x=%v, a=%d) = %v, want %v", x0, a, got, want)
			}
		}
	}
	// Greedy policy: action 1 wins for x<2/3, action 0 for x>2/3.
	g := m.GreedyPolicy(false)
	if got := g.Act(&core.Context{Features: core.Vector{0.1}, NumActions: 3}); got != 1 {
		t.Errorf("greedy(0.1) = %d, want 1", got)
	}
	if got := g.Act(&core.Context{Features: core.Vector{1.9}, NumActions: 3}); got != 0 {
		t.Errorf("greedy(1.9) = %d, want 0", got)
	}
}

func TestRewardModelSharedMode(t *testing.T) {
	r := stats.NewRand(3)
	// Reward = -latency where latency = 2*load + serverBias (in features).
	n := 4000
	ds := make(core.Dataset, n)
	for i := range ds {
		af := []core.Vector{
			{r.Float64() * 10, 1, 0},
			{r.Float64() * 10, 0, 1},
		}
		a := core.Action(r.Intn(2))
		lat := 2*af[a][0] + 3*af[a][2] // server 1 slower by +3
		ds[i] = core.Datapoint{
			Context:    core.Context{ActionFeatures: af, NumActions: 2},
			Action:     a,
			Reward:     lat, // stored as a cost
			Propensity: 0.5,
		}
	}
	m, err := FitRewardModel(ds, FitOptions{Lambda: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{
		ActionFeatures: []core.Vector{{4, 1, 0}, {2, 0, 1}},
		NumActions:     2,
	}
	// costs: action0 = 8, action1 = 7 → minimize picks 1.
	if math.Abs(m.Predict(ctx, 0)-8) > 0.1 || math.Abs(m.Predict(ctx, 1)-7) > 0.1 {
		t.Errorf("predict = %v, %v; want 8, 7", m.Predict(ctx, 0), m.Predict(ctx, 1))
	}
	if got := m.GreedyPolicy(true).Act(ctx); got != 1 {
		t.Errorf("greedy-min = %d, want 1", got)
	}
}

func TestRewardModelFallbackForUnseenAction(t *testing.T) {
	// All data on action 0; action 1 should fall back to the global mean.
	ds := core.Dataset{
		{Context: core.Context{Features: core.Vector{1}, NumActions: 2}, Action: 0, Reward: 4, Propensity: 0.5},
		{Context: core.Context{Features: core.Vector{2}, NumActions: 2}, Action: 0, Reward: 6, Propensity: 0.5},
		{Context: core.Context{Features: core.Vector{3}, NumActions: 2}, Action: 0, Reward: 8, Propensity: 0.5},
	}
	m, err := FitRewardModel(ds, FitOptions{Lambda: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{Features: core.Vector{2}, NumActions: 2}
	if got := m.Predict(ctx, 1); got != 6 {
		t.Errorf("fallback = %v, want mean 6", got)
	}
}

func TestRewardModelImportanceWeighted(t *testing.T) {
	// Skewed logging must not break the fit when importance weighting is on.
	r := stats.NewRand(4)
	ds := make(core.Dataset, 8000)
	for i := range ds {
		x := core.Vector{r.Float64() * 2}
		var a core.Action
		var p float64
		if r.Float64() < 0.9 {
			a, p = 0, 0.9
		} else {
			a, p = 1, 0.1
		}
		ds[i] = core.Datapoint{
			Context:    core.Context{Features: x, NumActions: 2},
			Action:     a,
			Reward:     perActionTruth(x, a),
			Propensity: p,
		}
	}
	m, err := FitRewardModel(ds, FitOptions{Lambda: 1e-6, ImportanceWeighted: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{Features: core.Vector{1}, NumActions: 2}
	if math.Abs(m.Predict(ctx, 1)-2) > 0.1 {
		t.Errorf("minority action prediction = %v, want 2", m.Predict(ctx, 1))
	}
}

func TestFitRewardModelValidation(t *testing.T) {
	if _, err := FitRewardModel(nil, FitOptions{}); !errors.Is(err, core.ErrNoData) {
		t.Error("empty should fail")
	}
	bad := core.Dataset{{Context: core.Context{Features: core.Vector{1}, NumActions: 2}, Action: 5, Propensity: 0.5}}
	if _, err := FitRewardModel(bad, FitOptions{NumActions: 2}); err == nil {
		t.Error("out-of-range action should fail")
	}
	noP := core.Dataset{{Context: core.Context{Features: core.Vector{1}, NumActions: 2}, Action: 0, Propensity: 0}}
	if _, err := FitRewardModel(noP, FitOptions{ImportanceWeighted: true}); err == nil {
		t.Error("zero propensity with IW should fail")
	}
}

func TestSGDConvergesToLinear(t *testing.T) {
	r := stats.NewRand(5)
	s := NewSGDRegressor(2, 0.05, 1e-4)
	for i := 0; i < 20000; i++ {
		x := core.Vector{r.Float64(), r.Float64()}
		y := 2*x[0] - x[1] + 0.5
		s.Update(x, y, 1)
	}
	pred := s.Predict(core.Vector{0.5, 0.5})
	if math.Abs(pred-1.0) > 0.05 {
		t.Errorf("sgd predict = %v, want 1.0", pred)
	}
	if s.step != 20000 {
		t.Errorf("steps = %d", s.step)
	}
	if len(s.w) != 3 {
		t.Errorf("weights len = %d, want 3 (incl bias)", len(s.w))
	}
}

func TestSGDDefaults(t *testing.T) {
	s := NewSGDRegressor(1, 0, -1)
	s.Update(core.Vector{1}, 1, 1)
	if s.Predict(core.Vector{1}) == 0 {
		t.Error("default LR should move the prediction")
	}
}
