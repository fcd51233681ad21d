package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/harvestd"
	"repro/internal/ope"
)

// oracle holds, per policy, the batch estimators' values on one block.
// Replaying the block multiplies every sum and the count alike, so a
// daemon that folded any whole number of replays must report these values.
type oracle struct {
	want map[string][3]float64 // IPS, clipped IPS, SNIPS
}

func newOracle(pts core.Dataset, pols []namedPolicy) (*oracle, error) {
	o := &oracle{want: make(map[string][3]float64, len(pols))}
	estimators := [3]ope.Estimator{ope.IPS{}, ope.ClippedIPS{Max: clip}, ope.SNIPS{}}
	for _, p := range pols {
		var vals [3]float64
		for i, e := range estimators {
			est, err := e.Estimate(p.pol, pts)
			if err != nil {
				return nil, fmt.Errorf("oracle: %s on %s: %w", e.Name(), p.name, err)
			}
			vals[i] = est.Value
		}
		o.want[p.name] = vals
	}
	return o, nil
}

// check requires every policy to have folded exactly n records and to
// agree with the batch estimators within 1e-9 relative.
func (o *oracle) check(ests []harvestd.PolicyEstimate, n int64) error {
	if len(ests) != len(o.want) {
		return fmt.Errorf("%d policies served, want %d", len(ests), len(o.want))
	}
	for _, pe := range ests {
		want, ok := o.want[pe.Policy]
		if !ok {
			return fmt.Errorf("unexpected policy %q", pe.Policy)
		}
		if pe.N != n {
			return fmt.Errorf("policy %s folded %d records, want %d", pe.Policy, pe.N, n)
		}
		got := [3]float64{pe.IPS.Value, pe.ClippedIPS.Value, pe.SNIPS.Value}
		for i, name := range [3]string{"ips", "clipped_ips", "snips"} {
			if math.Abs(got[i]-want[i]) > 1e-9*math.Max(math.Abs(want[i]), 1e-300) {
				return fmt.Errorf("policy %s %s = %v, batch estimator says %v", pe.Policy, name, got[i], want[i])
			}
		}
	}
	return nil
}
