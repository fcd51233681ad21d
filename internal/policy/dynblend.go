package policy

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"repro/internal/core"
)

// DynamicBlend deploys a new policy on a fraction of traffic while the
// incumbent keeps the rest — the staged rollout of the paper's introduction,
// expressed as a single stochastic policy. Because it exposes its exact
// action distribution, the rollout's traffic remains fully harvestable: the
// data collected at 10% exposure already evaluates the candidate at 100%
// (that is the whole point of randomizing over actions instead of over
// policies).
//
// The share can be retuned while the policy is serving live traffic — the
// actuation target of a staged rollout controller. It lives in an atomic
// word, so a controller goroutine may call SetShare concurrently with a
// proxy making routing decisions; every decision reads the share exactly
// once, keeping the action draw and the logged propensity consistent (the
// harvesting invariant: the logged distribution must be the one the action
// was drawn from).
//
// The rand source and the wrapped policies are not themselves synchronized
// — Act and Distribution must be serialized by the caller (netlb's proxy
// routes under its own lock), while SetShare may come from anywhere.
type DynamicBlend struct {
	// New receives the current share of decisions; Old the rest.
	New, Old core.Policy
	R        *rand.Rand

	shareBits atomic.Uint64
}

// NewDynamicBlend validates and builds a retunable staged rollout.
func NewDynamicBlend(newPol, oldPol core.Policy, share float64, r *rand.Rand) (*DynamicBlend, error) {
	if newPol == nil || oldPol == nil {
		return nil, fmt.Errorf("policy: blend needs both policies")
	}
	if r == nil {
		return nil, fmt.Errorf("policy: blend needs a rand source")
	}
	b := &DynamicBlend{New: newPol, Old: oldPol, R: r}
	if err := b.SetShare(share); err != nil {
		return nil, err
	}
	return b, nil
}

// Share returns the current rollout fraction.
func (b *DynamicBlend) Share() float64 {
	return math.Float64frombits(b.shareBits.Load())
}

// SetShare moves the rollout fraction. Safe to call concurrently with
// routing decisions.
func (b *DynamicBlend) SetShare(share float64) error {
	if math.IsNaN(share) || share < 0 || share > 1 {
		return fmt.Errorf("policy: blend share %v out of [0,1]", share)
	}
	b.shareBits.Store(math.Float64bits(share))
	return nil
}

// Act implements core.Policy.
func (b *DynamicBlend) Act(ctx *core.Context) core.Action {
	if b.R.Float64() < b.Share() {
		return b.New.Act(ctx)
	}
	return b.Old.Act(ctx)
}

// Distribution implements core.StochasticPolicy: the mixture at the share
// read once at call time.
func (b *DynamicBlend) Distribution(ctx *core.Context) []float64 {
	share := b.Share()
	d := make([]float64, ctx.NumActions)
	accumulate := func(p core.Policy, weight float64) {
		if weight == 0 {
			return
		}
		if sp, ok := p.(core.StochasticPolicy); ok {
			for a, pa := range sp.Distribution(ctx) {
				if a < len(d) {
					d[a] += weight * pa
				}
			}
			return
		}
		a := p.Act(ctx)
		if int(a) < len(d) {
			d[a] += weight
		}
	}
	accumulate(b.New, share)
	accumulate(b.Old, 1-share)
	return d
}

// String names the policy. The name is share-independent on purpose: the
// blend is the logging policy, and its identity must not change as the
// controller retunes the share mid-stream.
func (b *DynamicBlend) String() string { return "dynblend" }
