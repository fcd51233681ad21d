package ope

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// selectWorld builds uniform-logged data over 3 actions with context-free
// expected rewards {0.3, 0.5, 0.8} plus noise.
func selectWorld(seed int64, n int) core.Dataset {
	r := stats.NewRand(seed)
	means := []float64{0.3, 0.5, 0.8}
	ds := make(core.Dataset, n)
	for i := range ds {
		a := core.Action(r.Intn(3))
		rew := means[a] + (r.Float64()-0.5)*0.2
		ds[i] = core.Datapoint{
			Context:    core.Context{Features: core.Vector{1}, NumActions: 3},
			Action:     a,
			Reward:     rew,
			Propensity: 1.0 / 3,
		}
	}
	return ds
}

// selectFrom is the evalpolicy pipeline on one log: an IPS estimate per
// candidate, the dataset's derived range bound, then the selection.
func selectFrom(t *testing.T, pols []core.Policy, ds core.Dataset, delta float64, minimize bool) *Selection {
	t.Helper()
	ests := make([]Estimate, len(pols))
	for i, p := range pols {
		e, err := (IPS{}).Estimate(p, ds)
		if err != nil {
			t.Fatal(err)
		}
		ests[i] = e
	}
	rangeHi, err := DeriveRangeHi(ds)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectFromEstimates(ests, rangeHi, delta, minimize)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestSelectFromEstimatesPicksTruthfully(t *testing.T) {
	ds := selectWorld(1, 30000)
	sel := selectFrom(t, []core.Policy{always(0), always(1), always(2)}, ds, 0.05, false)
	if sel.Best.Index != 2 {
		t.Errorf("best = %d, want 2", sel.Best.Index)
	}
	if len(sel.Scores) != 3 {
		t.Fatalf("scores = %d", len(sel.Scores))
	}
	// Simultaneous intervals must each contain the true value.
	truths := []float64{0.3, 0.5, 0.8}
	for i, s := range sel.Scores {
		if !s.Interval.Contains(truths[i]) {
			t.Errorf("interval %d %v misses truth %v", i, s.Interval, truths[i])
		}
	}
	if !sel.Separated {
		t.Error("30k points should certify the winner")
	}
}

func TestSelectFromEstimatesMinimize(t *testing.T) {
	ds := selectWorld(2, 30000)
	sel := selectFrom(t, []core.Policy{always(0), always(1), always(2)}, ds, 0.05, true)
	if sel.Best.Index != 0 {
		t.Errorf("min-best = %d, want 0", sel.Best.Index)
	}
	if !sel.Separated {
		t.Error("30k points should certify the minimizer")
	}
}

func TestSelectFromEstimatesNotSeparatedOnTinyData(t *testing.T) {
	ds := selectWorld(3, 60)
	sel := selectFrom(t, []core.Policy{always(1), always(2)}, ds, 0.05, false)
	if sel.Separated {
		t.Error("60 points should not certify a 0.3-gap winner at 95%")
	}
}

func TestSelectFromEstimatesUnionBoundWidensIntervals(t *testing.T) {
	ds := selectWorld(4, 10000)
	two := selectFrom(t, []core.Policy{always(0), always(2)}, ds, 0.05, false)
	many := make([]core.Policy, 40)
	for i := range many {
		many[i] = always(core.Action(i % 3))
	}
	forty := selectFrom(t, many, ds, 0.05, false)
	if forty.Scores[0].Interval.Width() <= two.Scores[0].Interval.Width() {
		t.Errorf("40-way intervals (%v) should be wider than 2-way (%v)",
			forty.Scores[0].Interval.Width(), two.Scores[0].Interval.Width())
	}
}

func TestSelectFromEstimatesValidation(t *testing.T) {
	ests := []Estimate{{Value: 0.5, StdErr: 0.1, N: 10}}
	if _, err := SelectFromEstimates(nil, 3, 0.05, false); err == nil {
		t.Error("no estimates should fail")
	}
	for _, delta := range []float64{0, 1, 2, -0.1} {
		if _, err := SelectFromEstimates(ests, 3, delta, false); err == nil {
			t.Errorf("delta %v out of range should fail", delta)
		}
	}
	if _, err := SelectFromEstimates(ests, 0, 0.05, false); err == nil {
		t.Error("non-positive rangeHi should fail")
	}
	if _, err := DeriveRangeHi(nil); !errors.Is(err, core.ErrNoData) {
		t.Error("no data should fail")
	}
	bad := core.Dataset{{Context: core.Context{NumActions: 2}, Propensity: 0}}
	if _, err := DeriveRangeHi(bad); err == nil {
		t.Error("zero propensity should fail")
	}
}

func TestSelectFromEstimatesExplicitRange(t *testing.T) {
	ds := selectWorld(6, 5000)
	var ests []Estimate
	for _, p := range []core.Policy{always(0), always(2)} {
		e, err := (IPS{}).Estimate(p, ds)
		if err != nil {
			t.Fatal(err)
		}
		ests = append(ests, e)
	}
	sel, err := SelectFromEstimates(ests, 3, 0.05, false)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best.Index != 1 { // slice position of always(2)
		t.Errorf("best = %d, want 1", sel.Best.Index)
	}
}
