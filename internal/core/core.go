// Package core defines the contextual-bandit vocabulary shared by the whole
// repository: feature vectors, contexts, actions, the ⟨x, a, r, p⟩
// exploration datapoint of the harvesting methodology, and the Policy
// interfaces that every estimator, learner, and substrate speaks.
//
// The paper ("Harvesting Randomness to Optimize Distributed Systems",
// HotNets 2017, §2–§3) casts a system decision as: observe a context x,
// choose an action a with probability p under the deployed policy, observe a
// reward r. A logged interaction is therefore the tuple ⟨x, a, r, p⟩, and a
// candidate policy π can be evaluated offline from a set of such tuples.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Action identifies one of the eligible choices for a decision. Actions are
// small dense integers in [0, NumActions) — the paper's settings (reboot
// wait minutes, backend servers, eviction candidates) all reduce to this.
type Action int

// Vector is a dense feature vector. The zero value is an empty vector.
type Vector []float64

// Dot returns the inner product of v and w. Missing trailing entries on
// either side are treated as zero, so vectors of different lengths compose
// safely (useful when features are appended over time).
func (v Vector) Dot(w Vector) float64 {
	n := len(v)
	if len(w) < n {
		n = len(w)
	}
	s := 0.0
	for i := 0; i < n; i++ {
		s += v[i] * w[i]
	}
	return s
}

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	if v == nil {
		return nil
	}
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	return math.Sqrt(v.Dot(v))
}

// Scale multiplies every component in place and returns v for chaining.
func (v Vector) Scale(c float64) Vector {
	for i := range v {
		v[i] *= c
	}
	return v
}

// Add accumulates w into v in place (entries of w beyond len(v) are ignored).
func (v Vector) Add(w Vector) {
	for i := range w {
		if i >= len(v) {
			break
		}
		v[i] += w[i]
	}
}

// Context is the state observed before a decision: a shared feature vector,
// optionally per-action feature vectors, and the number of eligible actions.
type Context struct {
	// Features describes the decision globally (machine hardware, request
	// type, time of day, ...).
	Features Vector
	// ActionFeatures optionally describes each eligible action (per-server
	// load, per-item size and recency, ...). Either nil or of length
	// NumActions.
	ActionFeatures []Vector
	// NumActions is the size of the action set for this decision. The
	// action set may vary per decision (e.g. eviction candidates).
	NumActions int
}

// Validate checks structural invariants.
func (c *Context) Validate() error {
	if c.NumActions <= 0 {
		return fmt.Errorf("core: context has %d actions", c.NumActions)
	}
	if c.ActionFeatures != nil && len(c.ActionFeatures) != c.NumActions {
		return fmt.Errorf("core: %d action-feature rows for %d actions",
			len(c.ActionFeatures), c.NumActions)
	}
	return nil
}

// FeaturesFor returns the feature vector describing action a in context c:
// the per-action vector when present, else the shared features. This is the
// input to per-action reward models.
func (c *Context) FeaturesFor(a Action) Vector {
	if c.ActionFeatures != nil && int(a) < len(c.ActionFeatures) {
		return c.ActionFeatures[a]
	}
	return c.Features
}

// Datapoint is one logged interaction: the exploration tuple ⟨x, a, r, p⟩.
type Datapoint struct {
	Context    Context
	Action     Action
	Reward     float64
	Propensity float64
	// Seq orders datapoints within a trajectory (used by the long-horizon
	// estimators of §5); Tag carries an opaque source annotation.
	Seq int64
	Tag string
}

// Validate checks that the datapoint is usable for off-policy evaluation.
// In particular the logged action's propensity must be positive — the ips
// estimator is undefined otherwise (§4).
func (d *Datapoint) Validate() error {
	if err := d.Context.Validate(); err != nil {
		return err
	}
	if d.Action < 0 || int(d.Action) >= d.Context.NumActions {
		return fmt.Errorf("core: action %d out of range [0,%d)", d.Action, d.Context.NumActions)
	}
	if !(d.Propensity > 0) || d.Propensity > 1 {
		return fmt.Errorf("core: propensity %v out of (0,1]", d.Propensity)
	}
	if math.IsNaN(d.Reward) || math.IsInf(d.Reward, 0) {
		return fmt.Errorf("core: non-finite reward %v", d.Reward)
	}
	return nil
}

// Dataset is an ordered collection of exploration datapoints.
type Dataset []Datapoint

// Validate checks every datapoint, reporting the first failure with its index.
func (ds Dataset) Validate() error {
	for i := range ds {
		if err := ds[i].Validate(); err != nil {
			return fmt.Errorf("datapoint %d: %w", i, err)
		}
	}
	return nil
}

// MinPropensity returns the smallest logged propensity in the dataset — the
// ε of the paper's Eq. 1. It returns 0 for an empty dataset.
func (ds Dataset) MinPropensity() float64 {
	if len(ds) == 0 {
		return 0
	}
	min := ds[0].Propensity
	for i := 1; i < len(ds); i++ {
		if ds[i].Propensity < min {
			min = ds[i].Propensity
		}
	}
	return min
}

// RewardRange returns the smallest and largest rewards in the dataset.
func (ds Dataset) RewardRange() (lo, hi float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	lo, hi = ds[0].Reward, ds[0].Reward
	for i := 1; i < len(ds); i++ {
		if r := ds[i].Reward; r < lo {
			lo = r
		} else if r > hi {
			hi = r
		}
	}
	return lo, hi
}

// Policy maps a context to an action deterministically. Candidate policies
// being evaluated offline implement this.
type Policy interface {
	// Act returns the chosen action for the context. Implementations must
	// return an action in [0, ctx.NumActions).
	Act(ctx *Context) Action
}

// StochasticPolicy additionally exposes a full distribution over actions.
// Deployed (logging) policies implement this so the harvester can record
// propensities; the long-horizon estimators need it for candidate policies
// too.
type StochasticPolicy interface {
	Policy
	// Distribution returns the probability of each action in the context.
	// The returned slice has length ctx.NumActions and sums to 1.
	Distribution(ctx *Context) []float64
}

// PolicyFunc adapts a plain function to the Policy interface.
type PolicyFunc func(ctx *Context) Action

// Act implements Policy.
func (f PolicyFunc) Act(ctx *Context) Action { return f(ctx) }

// ErrNoData is returned by estimators and learners given an empty dataset.
var ErrNoData = errors.New("core: empty dataset")

// ImportanceWeight is the single positivity-checked gate for every
// IPS-family hot path: it returns the importance weight w = pi/p and true
// when the logged propensity p is strictly positive, and (0, false)
// otherwise. Estimators must never divide by a propensity directly —
// an unguarded p = 0 (or a NaN) poisons a running estimate with ±Inf
// without crashing. The harvestlint propdiv analyzer enforces this.
func ImportanceWeight(pi, p float64) (float64, bool) {
	if !(p > 0) {
		return 0, false
	}
	return pi / p, true
}

// ActionProber is an optional fast path for estimators: a policy that can
// report the probability of a single action without materializing its whole
// distribution. Implementing it removes the per-datapoint allocation in the
// IPS hot loop (Distribution must allocate a slice; ActionProb need not).
type ActionProber interface {
	// ActionProb returns the probability of choosing a in ctx. Must agree
	// with Distribution(ctx)[a] when both are implemented.
	ActionProb(ctx *Context, a Action) float64
}

// ActionProb returns the probability that policy assigns to action a in ctx:
// the exact probability for stochastic policies, else 1 if the deterministic
// choice matches and 0 otherwise. Estimators use this to weight matches.
// Policies implementing ActionProber take the allocation-free path.
func ActionProb(policy Policy, ctx *Context, a Action) float64 {
	if ap, ok := policy.(ActionProber); ok {
		return ap.ActionProb(ctx, a)
	}
	if sp, ok := policy.(StochasticPolicy); ok {
		return distProber{sp}.ActionProb(ctx, a)
	}
	return actProber{policy}.ActionProb(ctx, a)
}

// PreparedProber is an optional hook for policies whose ActionProb re-derives
// per call something constant for the policy (a normaliser, say). Prober
// returns, with that work done once, an ActionProber that is bit for bit the
// policy's ActionProb as of the call — a snapshot: mutating the policy's
// parameters afterwards does not change what a loop holding the prober
// (harvestd's Registry, from Register on) scores.
type PreparedProber interface {
	Prober() ActionProber
}

// ProberFor resolves ActionProb's dispatch once: the returned prober gives
// exactly ActionProb(policy, ·, ·) without re-asserting the policy's
// interfaces per call, prepared by the policy itself when it implements
// PreparedProber. Loops that score many datapoints under one policy
// (harvestd's batch fold) hoist the dispatch out with it.
func ProberFor(policy Policy) ActionProber {
	if pp, ok := policy.(PreparedProber); ok {
		return pp.Prober()
	}
	if ap, ok := policy.(ActionProber); ok {
		return ap
	}
	if sp, ok := policy.(StochasticPolicy); ok {
		return distProber{sp}
	}
	return actProber{policy}
}

// distProber reads one entry of a stochastic policy's full distribution.
type distProber struct{ sp StochasticPolicy }

func (p distProber) ActionProb(ctx *Context, a Action) float64 {
	dist := p.sp.Distribution(ctx)
	if int(a) < len(dist) {
		return dist[a]
	}
	return 0
}

// actProber scores a deterministic policy: 1 on a match, else 0.
type actProber struct{ policy Policy }

func (p actProber) ActionProb(ctx *Context, a Action) float64 {
	if p.policy.Act(ctx) == a {
		return 1
	}
	return 0
}
