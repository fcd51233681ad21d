package learn

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestMultinomialRecoversContextFreeRates(t *testing.T) {
	// Labels drawn from fixed rates regardless of x: the learned
	// probabilities should match the rates — exactly the empirical
	// propensity-inference use case.
	r := stats.NewRand(1)
	rates := []float64{0.2, 0.5, 0.3}
	n := 20000
	xs := make([]core.Vector, n)
	as := make([]core.Action, n)
	for i := range xs {
		xs[i] = core.Vector{r.Float64()}
		as[i] = core.Action(stats.Categorical(r, rates))
	}
	m, err := FitMultinomial(xs, as, MultinomialOptions{Epochs: 100})
	if err != nil {
		t.Fatal(err)
	}
	p := m.Probabilities(core.Vector{0.5})
	for a, want := range rates {
		if math.Abs(p[a]-want) > 0.03 {
			t.Errorf("p(%d) = %v, want %v", a, p[a], want)
		}
	}
}

func TestMultinomialSeparatesContexts(t *testing.T) {
	// Action 1 chosen when x > 0, else action 0 (with slight noise):
	// the model should assign high probability correctly by context.
	r := stats.NewRand(2)
	n := 8000
	xs := make([]core.Vector, n)
	as := make([]core.Action, n)
	for i := range xs {
		x := r.Float64()*4 - 2
		xs[i] = core.Vector{x}
		if (x > 0) != (r.Float64() < 0.05) { // 5% label noise
			as[i] = 1
		} else {
			as[i] = 0
		}
	}
	m, err := FitMultinomial(xs, as, MultinomialOptions{Epochs: 120})
	if err != nil {
		t.Fatal(err)
	}
	if p := m.Probabilities(core.Vector{1.5}); p[1] < 0.8 {
		t.Errorf("p(1 | x=1.5) = %v, want > 0.8", p[1])
	}
	if p := m.Probabilities(core.Vector{-1.5}); p[0] < 0.8 {
		t.Errorf("p(0 | x=-1.5) = %v, want > 0.8", p[0])
	}
}

func TestMultinomialProbabilitiesSumToOne(t *testing.T) {
	r := stats.NewRand(3)
	xs := make([]core.Vector, 100)
	as := make([]core.Action, 100)
	for i := range xs {
		xs[i] = core.Vector{r.Float64(), r.Float64()}
		as[i] = core.Action(r.Intn(4))
	}
	m, err := FitMultinomial(xs, as, MultinomialOptions{NumActions: 4, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	if m.k != 4 {
		t.Errorf("classes = %d", m.k)
	}
	for _, x := range []core.Vector{{0, 0}, {1, 1}, {-5, 3}} {
		p := m.Probabilities(x)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Errorf("probability %v out of range", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("probabilities sum to %v", sum)
		}
	}
}

func TestMultinomialValidation(t *testing.T) {
	if _, err := FitMultinomial(nil, nil, MultinomialOptions{}); !errors.Is(err, core.ErrNoData) {
		t.Error("empty should fail")
	}
	if _, err := FitMultinomial([]core.Vector{{1}}, []core.Action{0, 1}, MultinomialOptions{}); err == nil {
		t.Error("label/row mismatch should fail")
	}
	if _, err := FitMultinomial([]core.Vector{{1}}, []core.Action{-1}, MultinomialOptions{}); err == nil {
		t.Error("negative label should fail")
	}
	if _, err := FitMultinomial([]core.Vector{{1}, {2}}, []core.Action{0, 3}, MultinomialOptions{NumActions: 2}); err == nil {
		t.Error("label exceeding NumActions should fail")
	}
	if _, err := FitMultinomial([]core.Vector{{1}}, []core.Action{0}, MultinomialOptions{}); err == nil {
		t.Error("single class should fail")
	}
}

func TestFullFeedbackValidate(t *testing.T) {
	good := FullFeedbackDataset{{
		Context: core.Context{Features: core.Vector{1}, NumActions: 2},
		Rewards: []float64{1, 2},
	}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := FullFeedbackDataset{{
		Context: core.Context{Features: core.Vector{1}, NumActions: 2},
		Rewards: []float64{1},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("reward-count mismatch should fail")
	}
}

func TestBestActionAndOptimalReward(t *testing.T) {
	row := FullFeedbackRow{
		Context: core.Context{NumActions: 3},
		Rewards: []float64{5, 2, 8},
	}
	if row.BestAction(false) != 2 {
		t.Errorf("max best = %d", row.BestAction(false))
	}
	if row.BestAction(true) != 1 {
		t.Errorf("min best = %d", row.BestAction(true))
	}
	ds := FullFeedbackDataset{row}
	if got := ds.OptimalMeanReward(false); got != 8 {
		t.Errorf("optimal = %v", got)
	}
	if got := ds.OptimalMeanReward(true); got != 2 {
		t.Errorf("optimal-min = %v", got)
	}
}

func TestMeanReward(t *testing.T) {
	ds := FullFeedbackDataset{
		{Context: core.Context{NumActions: 2}, Rewards: []float64{1, 10}},
		{Context: core.Context{NumActions: 2}, Rewards: []float64{3, 20}},
	}
	p := core.PolicyFunc(func(*core.Context) core.Action { return 1 })
	if got := ds.MeanReward(p); got != 15 {
		t.Errorf("MeanReward = %v, want 15", got)
	}
	if got := (FullFeedbackDataset{}).MeanReward(p); got != 0 {
		t.Errorf("empty MeanReward = %v", got)
	}
}

func TestFitFullFeedbackRecoversBestPolicy(t *testing.T) {
	r := stats.NewRand(5)
	ds := make(FullFeedbackDataset, 2000)
	for i := range ds {
		x := core.Vector{r.Float64() * 2}
		ds[i] = FullFeedbackRow{
			Context: core.Context{Features: x, NumActions: 3},
			Rewards: []float64{
				perActionTruth(x, 0),
				perActionTruth(x, 1),
				perActionTruth(x, 2),
			},
		}
	}
	m, err := FitFullFeedback(ds, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	g := m.GreedyPolicy(false)
	got := ds.MeanReward(g)
	opt := ds.OptimalMeanReward(false)
	if got < opt*0.99 {
		t.Errorf("full-feedback policy reward %v < 99%% of optimal %v", got, opt)
	}
}

func TestFitFullFeedbackValidation(t *testing.T) {
	if _, err := FitFullFeedback(nil, 0); !errors.Is(err, core.ErrNoData) {
		t.Error("empty should fail")
	}
	bad := FullFeedbackDataset{{Context: core.Context{NumActions: 2}, Rewards: []float64{1}}}
	if _, err := FitFullFeedback(bad, 0); err == nil {
		t.Error("invalid rows should fail")
	}
}

func TestSimulateExploration(t *testing.T) {
	r := stats.NewRand(6)
	ds := make(FullFeedbackDataset, 3000)
	for i := range ds {
		ds[i] = FullFeedbackRow{
			Context: core.Context{Features: core.Vector{float64(i)}, NumActions: 4},
			Rewards: []float64{0, 1, 2, 3},
		}
	}
	expl := SimulateExploration(r, ds)
	if len(expl) != len(ds) {
		t.Fatalf("len = %d", len(expl))
	}
	counts := make([]int, 4)
	for i, d := range expl {
		if d.Propensity != 0.25 {
			t.Fatalf("propensity = %v", d.Propensity)
		}
		if d.Reward != float64(d.Action) {
			t.Fatalf("reward %v inconsistent with action %d", d.Reward, d.Action)
		}
		if d.Seq != int64(i) {
			t.Fatalf("seq = %d", d.Seq)
		}
		counts[d.Action]++
	}
	for a, c := range counts {
		frac := float64(c) / float64(len(expl))
		if math.Abs(frac-0.25) > 0.05 {
			t.Errorf("action %d drawn %v, want ≈0.25", a, frac)
		}
	}
}
