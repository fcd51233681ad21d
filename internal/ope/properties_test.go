package ope

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/stats"
)

// genQuickDataset builds a small, valid dataset from fuzz inputs.
func genQuickDataset(seed int64, n int, k int) core.Dataset {
	if n < 1 {
		n = 1
	}
	if n > 400 {
		n = 400
	}
	if k < 2 {
		k = 2
	}
	if k > 6 {
		k = 6
	}
	r := stats.NewRand(seed)
	ds := make(core.Dataset, n)
	for i := range ds {
		ds[i] = core.Datapoint{
			Context:    core.Context{Features: core.Vector{r.Float64()}, NumActions: k},
			Action:     core.Action(r.Intn(k)),
			Reward:     r.Float64()*4 - 2,
			Propensity: 1 / float64(k),
		}
	}
	return ds
}

// Property: IPS is equivariant to reward scaling — scaling every reward by
// c scales the estimate by exactly c.
func TestIPSScaleEquivarianceProperty(t *testing.T) {
	f := func(seed int64, n uint16, cRaw int8) bool {
		c := float64(cRaw%7) + 0.5
		ds := genQuickDataset(seed, int(n%300)+10, 3)
		pol := always(1)
		base, err := (IPS{}).Estimate(pol, ds)
		if err != nil {
			return false
		}
		scaled := make(core.Dataset, len(ds))
		copy(scaled, ds)
		for i := range scaled {
			scaled[i].Reward *= c
		}
		got, err := (IPS{}).Estimate(pol, scaled)
		if err != nil {
			return false
		}
		return math.Abs(got.Value-c*base.Value) < 1e-9*(1+math.Abs(c*base.Value))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: evaluating the logging policy itself (uniform stochastic) with
// IPS returns exactly the empirical mean reward — every weight is 1.
func TestIPSOnPolicyIdentityProperty(t *testing.T) {
	f := func(seed int64, n uint16, kRaw uint8) bool {
		k := int(kRaw%4) + 2
		ds := genQuickDataset(seed, int(n%300)+10, k)
		est, err := (IPS{}).Estimate(uniformStochastic{k: k}, ds)
		if err != nil {
			return false
		}
		mean := 0.0
		for i := range ds {
			mean += ds[i].Reward
		}
		mean /= float64(len(ds))
		return math.Abs(est.Value-mean) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// zeroModel predicts 0 for every action, so doubly robust loses its
// model term.
type zeroModel struct{}

func (zeroModel) Predict(*core.Context, core.Action) float64 { return 0 }

// Property: doubly robust with a zero model degenerates to plain IPS.
func TestDRZeroModelEqualsIPSProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		ds := genQuickDataset(seed, int(n%300)+10, 3)
		pol := always(2)
		ips, err := (IPS{}).Estimate(pol, ds)
		if err != nil {
			return false
		}
		dr, err := (DoublyRobust{Model: zeroModel{}}).Estimate(pol, ds)
		if err != nil {
			return false
		}
		return math.Abs(ips.Value-dr.Value) < 1e-9 &&
			math.Abs(ips.StdErr-dr.StdErr) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: SNIPS estimates always lie within [min, max] of the rewards of
// matched datapoints — it is a weighted average.
func TestSNIPSBoundedByMatchedRewardsProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		ds := genQuickDataset(seed, int(n%300)+10, 3)
		pol := always(0)
		lo, hi := math.Inf(1), math.Inf(-1)
		matched := false
		for i := range ds {
			if ds[i].Action == 0 {
				matched = true
				if ds[i].Reward < lo {
					lo = ds[i].Reward
				}
				if ds[i].Reward > hi {
					hi = ds[i].Reward
				}
			}
		}
		est, err := (SNIPS{}).Estimate(pol, ds)
		if !matched {
			return err != nil // ErrNoOverlap expected
		}
		if err != nil {
			return false
		}
		return est.Value >= lo-1e-9 && est.Value <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: on singleton trajectories (pure CB data), trajectory IS
// coincides with IPS.
func TestSingletonTrajectoriesCollapseToIPSProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		ds := genQuickDataset(seed, int(n%300)+10, 3)
		pol := always(1)
		ips, err := (IPS{}).Estimate(pol, ds)
		if err != nil {
			return false
		}
		tis, err := (TrajectoryIS{Gamma: 1}).Estimate(pol, ds)
		if err != nil {
			return false
		}
		return math.Abs(ips.Value-tis.Value) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: clipping never increases the maximum weight, and with clip ≥
// the action count (the natural max under uniform logging) it is exact.
func TestClipMonotoneProperty(t *testing.T) {
	f := func(seed int64, n uint16, clipRaw uint8) bool {
		ds := genQuickDataset(seed, int(n%300)+10, 4)
		pol := always(3)
		clip := float64(clipRaw%8) + 0.5
		plain, err := (IPS{}).Estimate(pol, ds)
		if err != nil {
			return false
		}
		clipped, err := (ClippedIPS{Max: clip}).Estimate(pol, ds)
		if err != nil {
			return false
		}
		if clipped.MaxWeight > clip+1e-12 {
			return false
		}
		if clip >= 4 {
			return math.Abs(clipped.Value-plain.Value) < 1e-9
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the Estimate's Matches count equals the number of datapoints
// where the deterministic candidate picked the logged action.
func TestMatchesCountProperty(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		ds := genQuickDataset(seed, int(n%300)+10, 3)
		pol := always(2)
		want := 0
		for i := range ds {
			if ds[i].Action == 2 {
				want++
			}
		}
		est, err := (IPS{}).Estimate(pol, ds)
		if err != nil {
			return false
		}
		return est.Matches == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
