package harvestd

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/ope"
	"repro/internal/stats"
)

// testDataset builds a randomized-LB exploration set.
func testDataset(n int, seed int64) core.Dataset {
	r := stats.NewRand(seed)
	ds := make(core.Dataset, n)
	for i := range ds {
		conns := []int{r.Intn(10), r.Intn(10), r.Intn(10)}
		a := core.Action(r.Intn(3))
		p := 1.0 / 3
		if r.Intn(4) == 0 { // occasional skew so clipping has bite
			p = 0.05
		}
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     a,
			Reward:     0.1 + 0.01*float64(conns[a]) + 0.02*r.Float64(),
			Propensity: p,
		}
	}
	return ds
}

func foldAll(t *testing.T, ds core.Dataset, pol core.Policy, clip float64) *ope.Accum {
	t.Helper()
	var acc ope.Accum
	for i := range ds {
		pi := core.ActionProb(pol, &ds[i].Context, ds[i].Action)
		acc.Fold(pi, ds[i].Propensity, ds[i].Reward, clip, 0)
	}
	return &acc
}

func TestAccumAgreesWithBatchEstimators(t *testing.T) {
	ds := testDataset(4000, 11)
	pol := lbsim.LeastLoaded{}
	const clip = 5.0
	acc := foldAll(t, ds, pol, clip)
	pe := acc.Estimate("p", 0.05)

	ips, err := (ope.IPS{}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pe.IPS.Value-ips.Value) > 1e-9 || math.Abs(pe.IPS.StdErr-ips.StdErr) > 1e-9 {
		t.Errorf("ips %v±%v != batch %v±%v", pe.IPS.Value, pe.IPS.StdErr, ips.Value, ips.StdErr)
	}
	clipped, err := (ope.ClippedIPS{Max: clip}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pe.ClippedIPS.Value-clipped.Value) > 1e-9 || math.Abs(pe.ClippedIPS.StdErr-clipped.StdErr) > 1e-9 {
		t.Errorf("clipped %v±%v != batch %v±%v",
			pe.ClippedIPS.Value, pe.ClippedIPS.StdErr, clipped.Value, clipped.StdErr)
	}
	snips, err := (ope.SNIPS{}).Estimate(pol, ds)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pe.SNIPS.Value-snips.Value) > 1e-9 || math.Abs(pe.SNIPS.StdErr-snips.StdErr) > 1e-6 {
		t.Errorf("snips %v±%v != batch %v±%v", pe.SNIPS.Value, pe.SNIPS.StdErr, snips.Value, snips.StdErr)
	}
	if pe.N != int64(len(ds)) {
		t.Errorf("n = %d", pe.N)
	}
	if pe.MatchRate <= 0 || pe.MatchRate > 1 {
		t.Errorf("match rate = %v", pe.MatchRate)
	}
}

func TestAccumMergeEqualsSingleStream(t *testing.T) {
	ds := testDataset(3000, 12)
	pol := lbsim.LeastLoaded{}
	whole := foldAll(t, ds, pol, 5)
	shards := make([]ope.Accum, 4)
	for i := range ds {
		pi := core.ActionProb(pol, &ds[i].Context, ds[i].Action)
		shards[i%4].Fold(pi, ds[i].Propensity, ds[i].Reward, 5, 0)
	}
	var merged ope.Accum
	for i := range shards {
		merged.Merge(&shards[i])
	}
	a, b := whole.Estimate("p", 0.05), merged.Estimate("p", 0.05)
	if a.N != b.N ||
		math.Abs(a.IPS.Value-b.IPS.Value) > 1e-9 ||
		math.Abs(a.IPS.StdErr-b.IPS.StdErr) > 1e-9 ||
		math.Abs(a.ClippedIPS.Value-b.ClippedIPS.Value) > 1e-9 ||
		math.Abs(a.SNIPS.Value-b.SNIPS.Value) > 1e-9 ||
		math.Abs(a.SNIPS.StdErr-b.SNIPS.StdErr) > 1e-9 {
		t.Errorf("merged %+v != whole %+v", b, a)
	}
	// Range tracking must merge too (EB width depends on it).
	if whole.MaxTerm != merged.MaxTerm || whole.MinTerm != merged.MinTerm {
		t.Errorf("term range lost in merge")
	}
}

func TestAccumIntervalsContainTruthOnSyntheticData(t *testing.T) {
	// Uniform logging over 2 actions, reward depends only on the action:
	// r = 1 for action 0, 0 for action 1. The value of always-0 is exactly 1.
	r := stats.NewRand(9)
	var acc ope.Accum
	for i := 0; i < 5000; i++ {
		a := core.Action(r.Intn(2))
		reward := 0.0
		if a == 0 {
			reward = 1 + 0.1*r.NormFloat64() // noisy but centered on 1
		}
		pi := 0.0
		if a == 0 {
			pi = 1
		}
		acc.Fold(pi, 0.5, reward, 0, 0)
	}
	pe := acc.Estimate("always-0", 0.05)
	if !(pe.IPS.Lo <= 1 && 1 <= pe.IPS.Hi) {
		t.Errorf("normal CI [%v, %v] misses truth 1", pe.IPS.Lo, pe.IPS.Hi)
	}
	if !pe.IPS.EBOK {
		t.Fatalf("EB interval should be available: %+v", pe.IPS)
	}
	if !(pe.IPS.EBLo <= 1 && 1 <= pe.IPS.EBHi) {
		t.Errorf("EB interval [%v, %v] misses truth 1", pe.IPS.EBLo, pe.IPS.EBHi)
	}
	// Bernstein is the conservative one.
	if pe.IPS.EBHi-pe.IPS.EBLo < pe.IPS.Hi-pe.IPS.Lo {
		t.Errorf("EB interval narrower than normal: eb=%v normal=%v",
			pe.IPS.EBHi-pe.IPS.EBLo, pe.IPS.Hi-pe.IPS.Lo)
	}
	// SNIPS ≈ 1 as well (self-normalization over w ∈ {0,2}).
	if math.Abs(pe.SNIPS.Value-1) > 0.02 {
		t.Errorf("snips = %v, want ≈1", pe.SNIPS.Value)
	}
}

// TestAccumDiagnosticsAgreeWithOfflineRecompute folds a skewed dataset and
// checks every diagnostics field against a direct second pass over the raw
// weights — the acceptance check that /diagnostics reports the same
// estimator health an offline audit would compute.
func TestAccumDiagnosticsAgreeWithOfflineRecompute(t *testing.T) {
	ds := testDataset(4000, 21)
	pol := lbsim.LeastLoaded{}
	const (
		clip  = 5.0
		floor = 0.1 // above the 0.05 skewed propensities, so floor hits occur
	)
	var acc ope.Accum
	for i := range ds {
		pi := core.ActionProb(pol, &ds[i].Context, ds[i].Action)
		acc.Fold(pi, ds[i].Propensity, ds[i].Reward, clip, floor)
	}
	diag := acc.Diagnostics("p")

	// Offline recompute from the raw data.
	var (
		n, matches, clipped, floorHits int64
		sumW, sumWSq, maxW             float64
	)
	for i := range ds {
		pi := core.ActionProb(pol, &ds[i].Context, ds[i].Action)
		w, ok := core.ImportanceWeight(pi, ds[i].Propensity)
		if !ok {
			continue
		}
		n++
		if pi > 0 {
			matches++
		}
		if ds[i].Propensity < floor {
			floorHits++
		}
		if w > clip {
			clipped++
		}
		sumW += w
		sumWSq += w * w
		maxW = math.Max(maxW, w)
	}
	if n == 0 || clipped == 0 || floorHits == 0 {
		t.Fatalf("degenerate dataset: n=%d clipped=%d floorHits=%d", n, clipped, floorHits)
	}
	ess := sumW * sumW / sumWSq
	nf := float64(n)
	if diag.N != n || diag.Matches != matches {
		t.Errorf("n/matches = %d/%d, want %d/%d", diag.N, diag.Matches, n, matches)
	}
	if math.Abs(diag.ESS-ess) > 1e-9 {
		t.Errorf("ess = %v, want %v", diag.ESS, ess)
	}
	if math.Abs(diag.ESSFraction-ess/nf) > 1e-12 {
		t.Errorf("ess fraction = %v, want %v", diag.ESSFraction, ess/nf)
	}
	if diag.MaxWeight != maxW {
		t.Errorf("max weight = %v, want %v", diag.MaxWeight, maxW)
	}
	if math.Abs(diag.MeanWeight-sumW/nf) > 1e-12 {
		t.Errorf("mean weight = %v, want %v", diag.MeanWeight, sumW/nf)
	}
	if diag.ClippedN != clipped || math.Abs(diag.ClipFraction-float64(clipped)/nf) > 1e-12 {
		t.Errorf("clipped = %d (%v), want %d (%v)",
			diag.ClippedN, diag.ClipFraction, clipped, float64(clipped)/nf)
	}
	if diag.FloorHits != floorHits || math.Abs(diag.FloorFraction-float64(floorHits)/nf) > 1e-12 {
		t.Errorf("floor hits = %d (%v), want %d (%v)",
			diag.FloorHits, diag.FloorFraction, floorHits, float64(floorHits)/nf)
	}

	// Diagnostics must survive sharding exactly (same sums, same merge).
	shards := make([]ope.Accum, 3)
	for i := range ds {
		pi := core.ActionProb(pol, &ds[i].Context, ds[i].Action)
		shards[i%3].Fold(pi, ds[i].Propensity, ds[i].Reward, clip, floor)
	}
	var merged ope.Accum
	for i := range shards {
		merged.Merge(&shards[i])
	}
	md := merged.Diagnostics("p")
	if md.ClippedN != diag.ClippedN || md.FloorHits != diag.FloorHits ||
		math.Abs(md.ESS-diag.ESS) > 1e-9 || md.MaxWeight != diag.MaxWeight {
		t.Errorf("sharded diagnostics %+v != single-stream %+v", md, diag)
	}

	var empty ope.Accum
	ed := empty.Diagnostics("e")
	if ed.N != 0 || ed.ESS != 0 || ed.ESSFraction != 0 {
		t.Errorf("empty diagnostics = %+v", ed)
	}
}

func TestAccumEmptyAndSingleton(t *testing.T) {
	var acc ope.Accum
	pe := acc.Estimate("p", 0.05)
	if pe.N != 0 || pe.IPS.Value != 0 || pe.IPS.EBOK {
		t.Errorf("empty estimate = %+v", pe)
	}
	acc.Fold(1, 0.5, 3, 0, 0)
	pe = acc.Estimate("p", 0.05)
	if pe.N != 1 || pe.IPS.Value != 6 {
		t.Errorf("singleton = %+v", pe)
	}
	if pe.IPS.Lo != pe.IPS.Hi {
		t.Errorf("singleton CI should collapse to the point: %+v", pe.IPS)
	}
	if pe.IPS.EBOK {
		t.Error("EB interval needs n >= 2")
	}
}
