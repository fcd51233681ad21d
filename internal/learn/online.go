package learn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
)

// EpochGreedy is an online contextual-bandit learner in the spirit of
// Langford & Zhang's epoch-greedy: it explores uniformly with a decaying
// probability ε_t = min(1, c·t^(-1/3)) and otherwise exploits the greedy
// action of its incrementally-trained per-action reward models. Every
// decision is randomized with known propensities, so the data it logs is
// itself harvestable — the continuous loop of §3.
type EpochGreedy struct {
	models    []*SGDRegressor
	shared    *SGDRegressor
	useShared bool
	k         int
	dim       int
	c         float64
	minimize  bool
	t         int
	r         *rand.Rand
}

// EpochGreedyOptions configures the learner.
type EpochGreedyOptions struct {
	// NumActions is the (fixed) action count. Required in per-action mode;
	// ignored when Shared is set.
	NumActions int
	// Dim is the feature dimension.
	Dim int
	// C scales the exploration schedule ε_t = min(1, C·t^(-1/3)).
	// Defaults to 1.
	C float64
	// Minimize treats rewards as costs (pick lowest prediction).
	Minimize bool
	// Shared uses a single regressor on per-action features instead of one
	// regressor per action.
	Shared bool
	// LR/Decay configure the underlying SGD (see NewSGDRegressor).
	LR, Decay float64
}

// NewEpochGreedy builds the learner.
func NewEpochGreedy(r *rand.Rand, opts EpochGreedyOptions) (*EpochGreedy, error) {
	if r == nil {
		return nil, fmt.Errorf("learn: epoch-greedy needs a rand source")
	}
	if opts.Dim <= 0 {
		return nil, fmt.Errorf("learn: epoch-greedy dim %d", opts.Dim)
	}
	c := opts.C
	if c == 0 {
		c = 1
	}
	eg := &EpochGreedy{
		k: opts.NumActions, dim: opts.Dim, c: c,
		minimize: opts.Minimize, r: r, useShared: opts.Shared,
	}
	if opts.Shared {
		eg.shared = NewSGDRegressor(opts.Dim, opts.LR, opts.Decay)
		return eg, nil
	}
	if opts.NumActions <= 0 {
		return nil, fmt.Errorf("learn: epoch-greedy needs NumActions in per-action mode")
	}
	eg.models = make([]*SGDRegressor, opts.NumActions)
	for a := range eg.models {
		eg.models[a] = NewSGDRegressor(opts.Dim, opts.LR, opts.Decay)
	}
	return eg, nil
}

// Epsilon returns the current exploration probability.
func (eg *EpochGreedy) Epsilon() float64 {
	t := float64(eg.t + 1)
	return math.Min(1, eg.c*math.Pow(t, -1.0/3.0))
}

// predict returns the model's reward prediction for (ctx, a).
func (eg *EpochGreedy) predict(ctx *core.Context, a core.Action) float64 {
	if eg.useShared {
		return eg.shared.Predict(ctx.FeaturesFor(a))
	}
	if int(a) < len(eg.models) {
		return eg.models[a].Predict(ctx.Features)
	}
	return 0
}

// greedyAction returns the current exploit choice.
func (eg *EpochGreedy) greedyAction(ctx *core.Context) core.Action {
	best := core.Action(0)
	bestV := eg.predict(ctx, 0)
	for a := 1; a < ctx.NumActions; a++ {
		v := eg.predict(ctx, core.Action(a))
		if (eg.minimize && v < bestV) || (!eg.minimize && v > bestV) {
			best, bestV = core.Action(a), v
		}
	}
	return best
}

// Act implements core.Policy: ε-greedy over the learned models.
func (eg *EpochGreedy) Act(ctx *core.Context) core.Action {
	if eg.r.Float64() < eg.Epsilon() {
		return core.Action(eg.r.Intn(ctx.NumActions))
	}
	return eg.greedyAction(ctx)
}

// Distribution implements core.StochasticPolicy, exposing exact propensities
// for harvesting.
func (eg *EpochGreedy) Distribution(ctx *core.Context) []float64 {
	eps := eg.Epsilon()
	d := make([]float64, ctx.NumActions)
	for i := range d {
		d[i] = eps / float64(ctx.NumActions)
	}
	d[eg.greedyAction(ctx)] += 1 - eps
	return d
}

// Update folds one observed interaction into the models. Propensity-weighted
// updates keep the regression unbiased under the learner's own skew.
func (eg *EpochGreedy) Update(d core.Datapoint) error {
	if !(d.Propensity > 0) {
		return fmt.Errorf("learn: update with propensity %v", d.Propensity)
	}
	eg.t++
	iw := 1.0 // plain squared-loss update; propensity kept for diagnostics
	if eg.useShared {
		eg.shared.Update(d.Context.FeaturesFor(d.Action), d.Reward, iw)
		return nil
	}
	a := int(d.Action)
	if a < 0 || a >= len(eg.models) {
		return fmt.Errorf("learn: update action %d out of range", a)
	}
	eg.models[a].Update(d.Context.Features, d.Reward, iw)
	return nil
}

// GreedyPolicy returns the frozen exploit-only policy (no exploration) —
// what you would deploy after training.
func (eg *EpochGreedy) GreedyPolicy() core.Policy {
	return core.PolicyFunc(eg.greedyAction)
}
