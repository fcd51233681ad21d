package ope

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// uniformStochastic is a uniform logging policy exposing its distribution.
type uniformStochastic struct{ k int }

func (u uniformStochastic) Act(ctx *core.Context) core.Action { return 0 }
func (u uniformStochastic) Distribution(ctx *core.Context) []float64 {
	d := make([]float64, u.k)
	for i := range d {
		d[i] = 1 / float64(u.k)
	}
	return d
}

// genTrajectories builds m trajectories of length h with uniform logging
// over k actions; the reward at each step is 1 if action 0 was taken.
func genTrajectories(r *rand.Rand, m, h, k int) []core.Trajectory {
	trs := make([]core.Trajectory, m)
	for i := range trs {
		tr := make(core.Trajectory, h)
		for j := range tr {
			a := core.Action(r.Intn(k))
			rew := 0.0
			if a == 0 {
				rew = 1
			}
			tr[j] = core.Datapoint{
				Context:    core.Context{NumActions: k},
				Action:     a,
				Reward:     rew,
				Propensity: 1 / float64(k),
				Seq:        int64(j),
				Tag:        fmt.Sprintf("t%d", i),
			}
		}
		trs[i] = tr
	}
	return trs
}

func TestTrajectoryISUnbiasedShortHorizon(t *testing.T) {
	r := stats.NewRand(1)
	trs := genTrajectories(r, 60000, 2, 2)
	// Candidate: always action 0 → return = horizon = 2.
	est, err := (TrajectoryIS{Gamma: 1}).EstimateTrajectories(always(0), trs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-2) > 3*est.StdErr+0.02 {
		t.Errorf("traj-is = %v, want 2 (se %v)", est.Value, est.StdErr)
	}
}

func TestTrajectoryVarianceExplodesWithHorizon(t *testing.T) {
	// This is the paper's §5 point: matching long sequences is rare, so
	// the weights (and stderr) blow up with the horizon.
	r := stats.NewRand(4)
	short, _ := (TrajectoryIS{Gamma: 1}).EstimateTrajectories(always(0), genTrajectories(r, 5000, 2, 2))
	long, _ := (TrajectoryIS{Gamma: 1}).EstimateTrajectories(always(0), genTrajectories(r, 5000, 10, 2))
	if long.MaxWeight <= short.MaxWeight {
		t.Errorf("max weight should grow with horizon: %v <= %v", long.MaxWeight, short.MaxWeight)
	}
	// Match fraction should collapse: (1/2)^10 ≈ 0.1% of trajectories.
	frac := float64(long.Matches) / float64(long.N)
	if frac > 0.01 {
		t.Errorf("long-horizon match fraction = %v, want < 1%%", frac)
	}
}

func TestTrajectoryClipCapsWeight(t *testing.T) {
	r := stats.NewRand(5)
	trs := genTrajectories(r, 5000, 8, 2)
	est, err := (TrajectoryIS{Gamma: 1, Clip: 16}).EstimateTrajectories(always(0), trs)
	if err != nil {
		t.Fatal(err)
	}
	if est.MaxWeight > 16 {
		t.Errorf("max weight %v exceeds clip", est.MaxWeight)
	}
}

func TestTrajectoryEstimateFromFlatDataset(t *testing.T) {
	r := stats.NewRand(6)
	trs := genTrajectories(r, 2000, 3, 2)
	flat := core.Flatten(trs)
	a, err := (TrajectoryIS{Gamma: 1}).Estimate(always(0), flat)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (TrajectoryIS{Gamma: 1}).EstimateTrajectories(always(0), trs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Value-b.Value) > 1e-12 {
		t.Errorf("flat vs grouped mismatch: %v vs %v", a.Value, b.Value)
	}
}

func TestTrajectoryEstimatorsValidate(t *testing.T) {
	if _, err := (TrajectoryIS{}).EstimateTrajectories(always(0), nil); !errors.Is(err, core.ErrNoData) {
		t.Error("empty should fail with ErrNoData")
	}
	bad := []core.Trajectory{{{Context: core.Context{NumActions: 2}, Propensity: 0}}}
	if _, err := (TrajectoryIS{}).EstimateTrajectories(always(0), bad); err == nil {
		t.Error("zero propensity should fail")
	}
}

func TestStochasticCandidateUsesExactProbabilities(t *testing.T) {
	// A stochastic candidate identical to the logging policy has all
	// weights exactly 1, so both estimators return the empirical mean
	// return with zero weight-induced variance inflation.
	r := stats.NewRand(7)
	trs := genTrajectories(r, 3000, 4, 2)
	cand := uniformStochastic{k: 2}
	est, err := (TrajectoryIS{Gamma: 1}).EstimateTrajectories(cand, trs)
	if err != nil {
		t.Fatal(err)
	}
	if est.MaxWeight != 1 {
		t.Errorf("on-policy weights should be exactly 1, got max %v", est.MaxWeight)
	}
	var mean stats.Welford
	for _, tr := range trs {
		mean.Add(tr.Return(1))
	}
	if math.Abs(est.Value-mean.Mean()) > 1e-9 {
		t.Errorf("on-policy traj-is %v != empirical %v", est.Value, mean.Mean())
	}
}
