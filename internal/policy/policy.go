// Package policy provides the concrete policy types used across the paper's
// scenarios: constants, uniform random, ε-greedy wrappers, decision stumps,
// the dynamic blend a rollout retunes, and the enumerable stump class that
// the optimizer searches (the "tunable template" of §4, discretized onto a
// grid so a class of ~10^6 candidates can be enumerated).
package policy

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Constant always chooses the same action (e.g. Table 2's "send to 1").
type Constant struct {
	A core.Action
}

// Act implements core.Policy.
func (c Constant) Act(ctx *core.Context) core.Action {
	if int(c.A) >= ctx.NumActions {
		return core.Action(ctx.NumActions - 1)
	}
	return c.A
}

// Distribution implements core.StochasticPolicy (a point mass).
func (c Constant) Distribution(ctx *core.Context) []float64 {
	d := make([]float64, ctx.NumActions)
	d[c.Act(ctx)] = 1
	return d
}

// ActionProb implements core.ActionProber (allocation-free point mass).
func (c Constant) ActionProb(ctx *core.Context, a core.Action) float64 {
	if c.Act(ctx) == a {
		return 1
	}
	return 0
}

// String names the policy for experiment tables.
func (c Constant) String() string { return fmt.Sprintf("always-%d", c.A) }

// UniformRandom chooses uniformly among the eligible actions — the classic
// harvestable randomized heuristic (random load balancing, random eviction).
type UniformRandom struct {
	R *rand.Rand
}

// Act implements core.Policy.
func (u UniformRandom) Act(ctx *core.Context) core.Action {
	return core.Action(u.R.Intn(ctx.NumActions))
}

// Distribution implements core.StochasticPolicy.
func (u UniformRandom) Distribution(ctx *core.Context) []float64 {
	d := make([]float64, ctx.NumActions)
	p := 1 / float64(ctx.NumActions)
	for i := range d {
		d[i] = p
	}
	return d
}

// ActionProb implements core.ActionProber.
func (u UniformRandom) ActionProb(ctx *core.Context, a core.Action) float64 {
	if int(a) < 0 || int(a) >= ctx.NumActions {
		return 0
	}
	return 1 / float64(ctx.NumActions)
}

// String names the policy.
func (u UniformRandom) String() string { return "uniform-random" }

// EpsilonGreedy follows a base policy with probability 1-ε and explores
// uniformly with probability ε. This is the standard way to keep every
// action's propensity at least ε/K so harvested data stays usable (§4: a
// higher ε reduces the data required).
type EpsilonGreedy struct {
	Base    core.Policy
	Epsilon float64
	R       *rand.Rand
}

// Act implements core.Policy.
func (e *EpsilonGreedy) Act(ctx *core.Context) core.Action {
	if e.R.Float64() < e.Epsilon {
		return core.Action(e.R.Intn(ctx.NumActions))
	}
	return e.Base.Act(ctx)
}

// Distribution implements core.StochasticPolicy.
func (e *EpsilonGreedy) Distribution(ctx *core.Context) []float64 {
	k := ctx.NumActions
	d := make([]float64, k)
	for i := range d {
		d[i] = e.Epsilon / float64(k)
	}
	d[e.Base.Act(ctx)] += 1 - e.Epsilon
	return d
}

// ActionProb implements core.ActionProber.
func (e *EpsilonGreedy) ActionProb(ctx *core.Context, a core.Action) float64 {
	if int(a) < 0 || int(a) >= ctx.NumActions {
		return 0
	}
	p := e.Epsilon / float64(ctx.NumActions)
	if e.Base.Act(ctx) == a {
		p += 1 - e.Epsilon
	}
	return p
}

// String names the policy.
func (e *EpsilonGreedy) String() string { return fmt.Sprintf("eps-greedy-%.3g", e.Epsilon) }

// Stump is a one-feature decision stump: action Below when feature Idx is
// under Cut, else Above. Stumps are the simplest "decision tree" template
// from §4 and enumerate into large policy classes.
type Stump struct {
	Idx          int
	Cut          float64
	Below, Above core.Action
}

// Act implements core.Policy.
func (s Stump) Act(ctx *core.Context) core.Action {
	v := 0.0
	if s.Idx < len(ctx.Features) {
		v = ctx.Features[s.Idx]
	}
	a := s.Above
	if v < s.Cut {
		a = s.Below
	}
	if int(a) >= ctx.NumActions {
		return core.Action(ctx.NumActions - 1)
	}
	return a
}

// String names the policy.
func (s Stump) String() string {
	return fmt.Sprintf("stump[x%d<%.3g?%d:%d]", s.Idx, s.Cut, s.Below, s.Above)
}
