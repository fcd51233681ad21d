package harvestd

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/ope"
	"repro/internal/stats"
)

// perRecordFold is Accum.Fold as it stood when FoldBatch still called it on
// every record for every policy, kept verbatim as FuzzFoldBatch's reference.
func perRecordFold(a *ope.Accum, pi, p, r, clip, floor float64) {
	w, ok := core.ImportanceWeight(pi, p)
	if !ok {
		return
	}
	if floor > 0 && p < floor {
		a.FloorHits++
	}
	term := w * r
	cw := w
	if clip > 0 && cw > clip {
		cw = clip
		a.Clipped++
	}
	cterm := cw * r
	if a.N == 0 {
		a.MinTerm, a.MaxTerm = term, term
		a.MinCTerm, a.MaxCTerm = cterm, cterm
		a.MinR, a.MaxR = r, r
	} else {
		a.MinTerm = min(a.MinTerm, term)
		a.MaxTerm = max(a.MaxTerm, term)
		a.MinCTerm = min(a.MinCTerm, cterm)
		a.MaxCTerm = max(a.MaxCTerm, cterm)
		a.MinR = min(a.MinR, r)
		a.MaxR = max(a.MaxR, r)
	}
	a.N++
	if pi > 0 {
		a.Matches++
	}
	a.SumW += w
	a.SumWSq += w * w
	a.MaxW = max(a.MaxW, w)
	a.SumWR += term
	a.SumWRSq += term * term
	a.SumW2R += w * w * r
	a.SumW2R2 += w * w * r * r
	a.SumCW += cw
	a.SumCWR += cterm
	a.SumCWRSq += cterm * cterm
}

// fuzzOuts are what the fuzz policies answer: both zeros, a match, a
// fraction, a negative, NaN and more than 1.
var fuzzOuts = [...]float64{0, math.Copysign(0, -1), 1, 0.5, -0.25, math.NaN(), 3}

// fuzzRewards are finite (FoldBatch's input is validated) but signed
// zeros, negative, subnormal, or large enough that a square overflows.
var fuzzRewards = [...]float64{0, math.Copysign(0, -1), -1.5, 0.37, 5e-324, -5e-324, 1e200}

// fuzzProps are in (0, 1], two of them under the 1e-3 floor; the subnormal
// one makes a weight of +Inf.
var fuzzProps = [...]float64{1, 0.5, 1.0 / 3, 0.125, 1e-4, 5e-324}

// fuzzPolicy answers fuzzOuts[record's selector + off], and panics on the
// records marked for it when panics is set. Context.Features holds the
// record's selector and its panic mark.
type fuzzPolicy struct {
	off    int
	panics bool
}

func (p fuzzPolicy) Act(*core.Context) core.Action { return 0 }

func (p fuzzPolicy) ActionProb(ctx *core.Context, _ core.Action) float64 {
	if p.panics && ctx.Features[1] != 0 {
		panic("fuzzPolicy: poisoned record")
	}
	return fuzzOuts[(int(ctx.Features[0])+p.off)%len(fuzzOuts)]
}

// FuzzFoldBatch: FoldBatch leaves every worker shard of every policy, bit
// for bit, as perRecordFold on each record in order would — over one or two
// workers, any batching, clip 0 or 10, floor 0 or 1e-3, a policy that
// panics on chosen records, and one registered between batches. Two bytes
// make a record. The first: bits 0–2 the policy-output selector, bit 3 the
// panic mark, bit 4 ends a batch there, bit 5 sends the batch to worker 1,
// bit 6 registers the late policy after the batch. The second picks the
// reward and the propensity.
func FuzzFoldBatch(f *testing.F) {
	r := stats.NewRand(36)
	for _, n := range []int{2, 40, 300, 1000} {
		seed := make([]byte, n)
		for i := range seed {
			seed[i] = byte(r.Intn(256))
		}
		f.Add(n%3 == 0, n%4 == 0, n > 100, seed)
	}
	f.Fuzz(func(t *testing.T, twoWorkers, clipped, floored bool, data []byte) {
		workers, clip, floor := 1, 0.0, 0.0
		if twoWorkers {
			workers = 2
		}
		if clipped {
			clip = 10
		}
		if floored {
			floor = DefaultPropensityFloor
		}
		reg, err := NewRegistry(workers, clip)
		if err != nil {
			t.Fatal(err)
		}
		reg.SetPropensityFloor(floor)
		pols := map[string]fuzzPolicy{"panics": {panics: true}}
		for off := range fuzzOuts {
			pols["out-"+string(rune('0'+off))] = fuzzPolicy{off: off}
		}
		for name, pol := range pols {
			if err := reg.Register(name, pol); err != nil {
				t.Fatal(err)
			}
		}
		ref := map[string][]ope.Accum{}
		for name := range pols {
			ref[name] = make([]ope.Accum, workers)
		}

		pts := make([]core.Datapoint, len(data)/2)
		for i := range pts {
			b0, b1 := data[2*i], data[2*i+1]
			pts[i] = core.Datapoint{
				Context:    core.Context{Features: core.Vector{float64(b0 & 7), float64(b0 >> 3 & 1)}, NumActions: 1},
				Reward:     fuzzRewards[int(b1)%len(fuzzRewards)],
				Propensity: fuzzProps[int(b1)/len(fuzzRewards)%len(fuzzProps)],
			}
		}
		var panics int64
		for from, i := 0, 0; i < len(pts); i++ {
			b0 := data[2*i]
			if b0&16 == 0 && i < len(pts)-1 {
				continue
			}
			worker := int(b0>>5&1) % workers
			reg.FoldBatch(worker, pts[from:i+1])
			for name, pol := range pols {
				for k := from; k <= i; k++ {
					d := &pts[k]
					if pol.panics && d.Context.Features[1] != 0 {
						panics++
						continue
					}
					perRecordFold(&ref[name][worker], pol.ActionProb(&d.Context, 0), d.Propensity, d.Reward, clip, floor)
				}
			}
			from = i + 1
			if _, late := pols["late"]; b0&64 != 0 && !late {
				pols["late"] = fuzzPolicy{off: 3}
				ref["late"] = make([]ope.Accum, workers)
				if err := reg.Register("late", pols["late"]); err != nil {
					t.Fatal(err)
				}
			}
		}

		if got := reg.EvalPanics(); got != panics {
			t.Errorf("EvalPanics = %d, want %d", got, panics)
		}
		for name, shards := range ref {
			for w, want := range shards {
				got := reg.entries[name].shards[w].acc
				if field, ok := sameBits(got, want); !ok {
					t.Fatalf("policy %s, worker %d: %s differs\n got %+v\nwant %+v", name, w, field, got, want)
				}
			}
		}
	})
}
