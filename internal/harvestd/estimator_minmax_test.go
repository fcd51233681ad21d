package harvestd

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
)

// refFold and refMerge are Accum.Fold and Accum.Merge as they stood on
// math.Min / math.Max — the reference the builtin min/max version is held
// to, bit for bit.
func refFold(a *Accum, pi, p, r, clip, floor float64) {
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
		a.MinTerm = math.Min(a.MinTerm, term)
		a.MaxTerm = math.Max(a.MaxTerm, term)
		a.MinCTerm = math.Min(a.MinCTerm, cterm)
		a.MaxCTerm = math.Max(a.MaxCTerm, cterm)
		a.MinR = math.Min(a.MinR, r)
		a.MaxR = math.Max(a.MaxR, r)
	}
	a.N++
	if pi > 0 {
		a.Matches++
	}
	a.SumW += w
	a.SumWSq += w * w
	a.MaxW = math.Max(a.MaxW, w)
	a.SumWR += term
	a.SumWRSq += term * term
	a.SumW2R += w * w * r
	a.SumW2R2 += w * w * r * r
	a.SumCW += cw
	a.SumCWR += cterm
	a.SumCWRSq += cterm * cterm
}

func refMerge(a, o *Accum) {
	if o.N == 0 {
		return
	}
	if a.N == 0 {
		*a = *o
		return
	}
	a.MinTerm = math.Min(a.MinTerm, o.MinTerm)
	a.MaxTerm = math.Max(a.MaxTerm, o.MaxTerm)
	a.MinCTerm = math.Min(a.MinCTerm, o.MinCTerm)
	a.MaxCTerm = math.Max(a.MaxCTerm, o.MaxCTerm)
	a.MinR = math.Min(a.MinR, o.MinR)
	a.MaxR = math.Max(a.MaxR, o.MaxR)
	a.N += o.N
	a.Matches += o.Matches
	a.SumW += o.SumW
	a.SumWSq += o.SumWSq
	a.MaxW = math.Max(a.MaxW, o.MaxW)
	a.SumWR += o.SumWR
	a.SumWRSq += o.SumWRSq
	a.SumW2R += o.SumW2R
	a.SumW2R2 += o.SumW2R2
	a.SumCW += o.SumCW
	a.SumCWR += o.SumCWR
	a.SumCWRSq += o.SumCWRSq
	a.Clipped += o.Clipped
	a.FloorHits += o.FloorHits
}

// sameBits reports the first field on which two accumulators differ,
// comparing floats by bit pattern so that −0 ≠ +0 and NaN = NaN.
func sameBits(got, want Accum) (field string, ok bool) {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		same := g.Field(i).Interface() == w.Field(i).Interface()
		if g.Field(i).Kind() == reflect.Float64 {
			same = math.Float64bits(g.Field(i).Float()) == math.Float64bits(w.Field(i).Float())
		}
		if !same {
			return g.Type().Field(i).Name, false
		}
	}
	return "", true
}

type foldArgs struct{ pi, p, r float64 }

// minMaxGrid is every (pi, p, r) over the values the two min/max families
// could disagree on if they disagreed anywhere finite: signed zeros,
// negatives, subnormals, a pi that underflows the weight, a propensity under
// the floor, and weights above and below the clip.
func minMaxGrid() []foldArgs {
	negZero := math.Copysign(0, -1)
	rewards := []float64{0, negZero, -1.5, 2.25, 5e-324, -5e-324, 1e-310, negZero, 0}
	var grid []foldArgs
	for _, pi := range []float64{0, 1e-300, 1} {
		for _, p := range []float64{0.5, 1e-4, 1, 0.125} {
			for _, r := range rewards {
				grid = append(grid, foldArgs{pi, p, r})
			}
		}
	}
	return grid
}

// TestAccumFoldMergeMatchMathMinMax: on the builtin min/max, Fold and Merge
// leave every field exactly as the math.Min/math.Max version did — after
// every step of the grid, forwards and backwards (so each of ±0 meets the
// other as both the running value and the new one), with clip and floor on
// and off, and for every split of the stream merged in either order.
func TestAccumFoldMergeMatchMathMinMax(t *testing.T) {
	grid := minMaxGrid()
	reversed := make([]foldArgs, len(grid))
	for i, a := range grid {
		reversed[len(grid)-1-i] = a
	}
	for _, clip := range []float64{0, 3} {
		for _, floor := range []float64{0, DefaultPropensityFloor} {
			for _, seq := range [][]foldArgs{grid, reversed} {
				var got, want Accum
				for i, a := range seq {
					got.Fold(a.pi, a.p, a.r, clip, floor)
					refFold(&want, a.pi, a.p, a.r, clip, floor)
					if f, ok := sameBits(got, want); !ok {
						t.Fatalf("clip %v floor %v step %d %+v: %s differs\n got %+v\nwant %+v", clip, floor, i, a, f, got, want)
					}
				}
				for cut := 0; cut <= len(seq); cut += 7 {
					var lo, hi Accum
					for _, a := range seq[:cut] {
						refFold(&lo, a.pi, a.p, a.r, clip, floor)
					}
					for _, a := range seq[cut:] {
						refFold(&hi, a.pi, a.p, a.r, clip, floor)
					}
					for _, pair := range [][2]Accum{{lo, hi}, {hi, lo}} {
						got, want := pair[0], pair[0]
						got.Merge(&pair[1])
						refMerge(&want, &pair[1])
						if f, ok := sameBits(got, want); !ok {
							t.Fatalf("clip %v floor %v cut %d: merged %s differs\n got %+v\nwant %+v", clip, floor, cut, f, got, want)
						}
					}
				}
			}
		}
	}
}

// TestAccumFoldNaNAfterInfIsTheOneException documents the single input the
// builtins answer differently: the pair (NaN, ±Inf), where math.Max/Min
// return the infinity and max/min return NaN. Datapoint.Validate keeps
// non-finite rewards out of Fold, and the NaN has poisoned every sum of the
// accumulator either way, so the old answer is not preserved.
func TestAccumFoldNaNAfterInfIsTheOneException(t *testing.T) {
	var got, want Accum
	for _, r := range []float64{math.Inf(1), math.NaN()} {
		got.Fold(1, 1, r, 0, 0)
		refFold(&want, 1, 1, r, 0, 0)
	}
	if !math.IsInf(want.MaxR, 1) || !math.IsNaN(got.MaxR) {
		t.Errorf("MaxR after (+Inf, NaN): math.Max gave %v, builtin max gave %v; want +Inf and NaN", want.MaxR, got.MaxR)
	}
	if !math.IsNaN(got.SumWR) || !math.IsNaN(want.SumWR) {
		t.Errorf("a NaN reward must poison the sums on both: got %v, ref %v", got.SumWR, want.SumWR)
	}
}
