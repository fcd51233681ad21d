package ope_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ope"
	"repro/internal/stats"
)

// ExampleIPS shows the heart of the methodology: evaluating a policy that
// was never deployed, from a randomized system's log.
func ExampleIPS() {
	// A deployed system chose uniformly between 2 actions and logged
	// ⟨x, a, r, p⟩. Action 1 secretly earns twice as much.
	r := stats.NewRand(7)
	var logged core.Dataset
	for i := 0; i < 20000; i++ {
		a := core.Action(r.Intn(2))
		reward := 0.25
		if a == 1 {
			reward = 0.5
		}
		logged = append(logged, core.Datapoint{
			Context:    core.Context{NumActions: 2},
			Action:     a,
			Reward:     reward,
			Propensity: 0.5,
		})
	}
	// Evaluate the candidate "always play action 1" offline.
	candidate := core.PolicyFunc(func(*core.Context) core.Action { return 1 })
	est, err := (ope.IPS{}).Estimate(candidate, logged)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("estimated reward: %.2f (true: 0.50)\n", est.Value)
	// Output:
	// estimated reward: 0.50 (true: 0.50)
}

// ExampleSelectFromEstimates evaluates several candidates simultaneously
// with union-bound confidence intervals — the Eq. 1 capability.
func ExampleSelectFromEstimates() {
	r := stats.NewRand(3)
	var logged core.Dataset
	means := []float64{0.2, 0.9, 0.5}
	for i := 0; i < 30000; i++ {
		a := core.Action(r.Intn(3))
		logged = append(logged, core.Datapoint{
			Context:    core.Context{NumActions: 3},
			Action:     a,
			Reward:     means[a] + (r.Float64()-0.5)*0.1,
			Propensity: 1.0 / 3,
		})
	}
	ests := make([]ope.Estimate, 3)
	for a := range ests {
		candidate := core.PolicyFunc(func(*core.Context) core.Action { return core.Action(a) })
		est, err := (ope.IPS{}).Estimate(candidate, logged)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		ests[a] = est
	}
	rangeHi, err := ope.DeriveRangeHi(logged)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	sel, err := ope.SelectFromEstimates(ests, rangeHi, 0.05, false)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("best candidate: %d (separated: %v)\n", sel.Best.Index, sel.Separated)
	// Output:
	// best candidate: 1 (separated: true)
}

// ExampleEq1Error reproduces the paper's data-requirement arithmetic.
func ExampleEq1Error() {
	// Evaluating a million policies on 1.7M datapoints with ε = 0.04.
	err := ope.Eq1Error(2, 0.04, 1.7e6, 1e6, 0.05)
	fmt.Printf("simultaneous error: %.3f\n", err)
	// A/B testing the same million policies on the same data:
	ab := ope.ABError(1, 1e6, 1.7e6, 0.05)
	fmt.Printf("A/B error: %.0f (useless)\n", ab)
	// Output:
	// simultaneous error: 0.022
	// A/B error: 13 (useless)
}
