package ope

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// echoPolicy answers a datapoint's one feature as its probability.
type echoPolicy struct{}

func (echoPolicy) Act(*core.Context) core.Action { return 0 }

func (echoPolicy) ActionProb(ctx *core.Context, _ core.Action) float64 { return ctx.Features[0] }

// TestFoldEqualsPerRecordFold: fold, the pass behind IPS, ClippedIPS and
// SNIPS, leaves every Accum field as Fold on each datapoint would, bit for
// bit — also on what fold admits and Datapoint.Validate does not: infinite
// and NaN rewards (0·Inf is NaN, so those are never misses), with a
// candidate answering ±0, a negative, NaN or more than 1, and weights that
// overflow.
func TestFoldEqualsPerRecordFold(t *testing.T) {
	negZero := math.Copysign(0, -1)
	outs := []float64{0, negZero, 1, 0.5, -0.25, math.NaN(), 3}
	rewards := []float64{0, negZero, -1.5, 0.37, 5e-324, 1e200, math.Inf(1), math.Inf(-1), math.NaN()}
	props := []float64{1, 0.5, 1e-4, 5e-324}
	r := stats.NewRand(36)
	for trial := 0; trial < 2000; trial++ {
		data := make(core.Dataset, 1+r.Intn(12))
		for i := range data {
			data[i] = core.Datapoint{
				Context:    core.Context{Features: core.Vector{outs[r.Intn(len(outs))]}, NumActions: 1},
				Reward:     rewards[r.Intn(len(rewards))],
				Propensity: props[r.Intn(len(props))],
			}
		}
		for _, clip := range []float64{0, 10} {
			got, err := fold(echoPolicy{}, data, clip)
			if err != nil {
				t.Fatal(err)
			}
			var want Accum
			for _, d := range data {
				want.Fold(d.Context.Features[0], d.Propensity, d.Reward, clip, 0)
			}
			g, w := reflect.ValueOf(got), reflect.ValueOf(want)
			for i := 0; i < g.NumField(); i++ {
				same := g.Field(i).Interface() == w.Field(i).Interface()
				if g.Field(i).Kind() == reflect.Float64 {
					same = math.Float64bits(g.Field(i).Float()) == math.Float64bits(w.Field(i).Float())
				}
				if !same {
					t.Fatalf("trial %d clip %v: %s differs\ndata %+v\n got %+v\nwant %+v",
						trial, clip, g.Type().Field(i).Name, data, got, want)
				}
			}
		}
	}
}
