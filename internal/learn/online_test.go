package learn

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

func TestEpochGreedyEpsilonDecays(t *testing.T) {
	eg, err := NewEpochGreedy(stats.NewRand(1), EpochGreedyOptions{NumActions: 3, Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	e0 := eg.Epsilon()
	if e0 != 1 {
		t.Errorf("initial epsilon = %v, want 1", e0)
	}
	ctx := core.Context{Features: core.Vector{1}, NumActions: 3}
	for i := 0; i < 1000; i++ {
		if err := eg.Update(core.Datapoint{Context: ctx, Action: 0, Reward: 1, Propensity: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if eg.Epsilon() >= 0.2 {
		t.Errorf("epsilon after 1000 steps = %v, want < 0.2", eg.Epsilon())
	}
	if eg.t != 1000 {
		t.Errorf("steps = %d", eg.t)
	}
}

func TestEpochGreedyLearnsBanditProblem(t *testing.T) {
	r := stats.NewRand(2)
	eg, err := NewEpochGreedy(r, EpochGreedyOptions{NumActions: 3, Dim: 1, C: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Interact with the synthetic environment for 5000 rounds.
	env := stats.Split(r)
	for i := 0; i < 5000; i++ {
		x := core.Vector{env.Float64() * 2}
		ctx := core.Context{Features: x, NumActions: 3}
		dist := eg.Distribution(&ctx)
		a := eg.Act(&ctx)
		rew := perActionTruth(x, a) + env.NormFloat64()*0.05
		if err := eg.Update(core.Datapoint{
			Context: ctx, Action: a, Reward: rew, Propensity: dist[a],
		}); err != nil {
			t.Fatal(err)
		}
	}
	// The frozen greedy policy should be near-optimal on fresh contexts.
	g := eg.GreedyPolicy()
	eval := stats.NewRand(99)
	var got, opt stats.Welford
	for i := 0; i < 5000; i++ {
		x := core.Vector{eval.Float64() * 2}
		ctx := core.Context{Features: x, NumActions: 3}
		got.Add(perActionTruth(x, g.Act(&ctx)))
		best := math.Inf(-1)
		for a := core.Action(0); a < 3; a++ {
			if v := perActionTruth(x, a); v > best {
				best = v
			}
		}
		opt.Add(best)
	}
	if got.Mean() < opt.Mean()*0.95 {
		t.Errorf("learned policy reward %v < 95%% of optimal %v", got.Mean(), opt.Mean())
	}
}

func TestEpochGreedyDistributionSumsToOne(t *testing.T) {
	eg, err := NewEpochGreedy(stats.NewRand(3), EpochGreedyOptions{NumActions: 4, Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := &core.Context{Features: core.Vector{1, 2}, NumActions: 4}
	d := eg.Distribution(ctx)
	sum := 0.0
	for _, p := range d {
		if p < 0 {
			t.Errorf("negative propensity %v", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
}

func TestEpochGreedySharedMode(t *testing.T) {
	r := stats.NewRand(4)
	eg, err := NewEpochGreedy(r, EpochGreedyOptions{Dim: 2, Shared: true, Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	env := stats.Split(r)
	// Latency = 3*load + bias(server): learner should discover the
	// coefficient and route to the lower-cost action.
	for i := 0; i < 8000; i++ {
		af := []core.Vector{
			{env.Float64() * 5, 0},
			{env.Float64() * 5, 1},
		}
		ctx := core.Context{ActionFeatures: af, NumActions: 2}
		dist := eg.Distribution(&ctx)
		a := eg.Act(&ctx)
		lat := 3*af[a][0] + 2*af[a][1]
		if err := eg.Update(core.Datapoint{
			Context: ctx, Action: a, Reward: lat, Propensity: dist[a],
		}); err != nil {
			t.Fatal(err)
		}
	}
	g := eg.GreedyPolicy()
	ctx := &core.Context{
		ActionFeatures: []core.Vector{{4, 0}, {1, 1}},
		NumActions:     2,
	}
	// costs 12 vs 5 → pick server 1.
	if got := g.Act(ctx); got != 1 {
		t.Errorf("greedy = %d, want 1", got)
	}
}

func TestEpochGreedyValidation(t *testing.T) {
	if _, err := NewEpochGreedy(nil, EpochGreedyOptions{NumActions: 2, Dim: 1}); err == nil {
		t.Error("nil rand should fail")
	}
	if _, err := NewEpochGreedy(stats.NewRand(1), EpochGreedyOptions{NumActions: 2, Dim: 0}); err == nil {
		t.Error("dim=0 should fail")
	}
	if _, err := NewEpochGreedy(stats.NewRand(1), EpochGreedyOptions{Dim: 1}); err == nil {
		t.Error("per-action mode without NumActions should fail")
	}
	eg, _ := NewEpochGreedy(stats.NewRand(1), EpochGreedyOptions{NumActions: 2, Dim: 1})
	ctx := core.Context{Features: core.Vector{1}, NumActions: 2}
	if err := eg.Update(core.Datapoint{Context: ctx, Action: 0, Reward: 1, Propensity: 0}); err == nil {
		t.Error("zero propensity update should fail")
	}
	if err := eg.Update(core.Datapoint{Context: ctx, Action: 9, Reward: 1, Propensity: 0.5}); err == nil {
		t.Error("out-of-range action update should fail")
	}
}
