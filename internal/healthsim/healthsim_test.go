package healthsim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/ope"
	"repro/internal/stats"
)

func newGen(t *testing.T, seed int64) *Generator {
	t.Helper()
	g, err := NewGenerator(stats.NewRand(seed), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(nil, DefaultConfig()); err == nil {
		t.Error("nil rand should fail")
	}
	// Zero config takes defaults.
	g, err := NewGenerator(stats.NewRand(1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Dim() != 4+3+3 {
		t.Errorf("default Dim = %d, want 10", g.Dim())
	}
}

func TestGenerateShape(t *testing.T) {
	g := newGen(t, 1)
	ds := g.Generate(500)
	if len(ds) != 500 {
		t.Fatalf("len = %d", len(ds))
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if ds[i].Context.NumActions != NumWaitActions {
			t.Fatalf("row %d has %d actions", i, ds[i].Context.NumActions)
		}
		if len(ds[i].Context.Features) != g.Dim() {
			t.Fatalf("row %d dim %d", i, len(ds[i].Context.Features))
		}
		for a, r := range ds[i].Rewards {
			if r > 0 {
				t.Fatalf("row %d action %d reward %v > 0 (rewards are -downtime)", i, a, r)
			}
		}
	}
}

func TestDowntimeSemantics(t *testing.T) {
	g := newGen(t, 2)
	e := Episode{SKU: 1, OS: 1, Recovers: true, RecoverAt: 3}
	// Waiting long enough: downtime = recovery time.
	if d := g.Downtime(&e, 5); d != 3 {
		t.Errorf("downtime(wait=5) = %v, want 3", d)
	}
	// Waiting too little: downtime = wait + reboot cost.
	reboot := g.rebootCost(&e)
	if d := g.Downtime(&e, 2); d != 2+reboot {
		t.Errorf("downtime(wait=2) = %v, want %v", d, 2+reboot)
	}
	// Never recovers: always wait + reboot.
	e2 := Episode{SKU: 0, Recovers: false}
	if d := g.Downtime(&e2, 4); d != 4+g.rebootCost(&e2) {
		t.Errorf("no-recovery downtime = %v", d)
	}
}

func TestDowntimeMonotoneWhenNoRecovery(t *testing.T) {
	g := newGen(t, 3)
	e := Episode{SKU: 2, OS: 1, Recovers: false}
	prev := -1.0
	for a := core.Action(0); a < NumWaitActions; a++ {
		d := g.Downtime(&e, WaitMinutes(a))
		if d <= prev {
			t.Fatalf("downtime should grow with wait when machine never recovers")
		}
		prev = d
	}
}

func TestContextMattersForOptimalAction(t *testing.T) {
	// The optimal wait should genuinely vary with context — otherwise the
	// scenario would not be a contextual problem. Check that the
	// ground-truth best action is not constant across a large sample.
	g := newGen(t, 4)
	ds := g.Generate(5000)
	counts := make(map[core.Action]int)
	for i := range ds {
		counts[ds[i].BestAction(false)]++
	}
	if len(counts) < 3 {
		t.Errorf("best action almost constant: %v", counts)
	}
}

func TestWaitMinutes(t *testing.T) {
	if WaitMinutes(0) != 1 || WaitMinutes(8) != 9 {
		t.Error("action a should mean a+1 minutes")
	}
}

func TestDefaultPolicyWaitsMax(t *testing.T) {
	p := DefaultPolicy()
	ctx := &core.Context{NumActions: NumWaitActions}
	if p.Act(ctx) != NumWaitActions-1 {
		t.Errorf("default policy should wait longest")
	}
}

func TestLearnedPolicyBeatsDefault(t *testing.T) {
	// The §4 result in miniature: a CB policy trained on simulated
	// exploration data outperforms the safe default.
	g := newGen(t, 5)
	train := g.Generate(8000)
	test := g.Generate(4000)

	expl := learn.SimulateExploration(stats.NewRand(6), train)
	model, err := learn.FitRewardModel(expl, learn.FitOptions{NumActions: NumWaitActions})
	if err != nil {
		t.Fatal(err)
	}
	cb := model.GreedyPolicy(false) // rewards are -downtime: maximize

	cbDowntime := -test.MeanReward(cb)
	defDowntime := -test.MeanReward(DefaultPolicy())
	optDowntime := -test.OptimalMeanReward(false)
	if cbDowntime >= defDowntime {
		t.Errorf("CB downtime %v should beat default %v", cbDowntime, defDowntime)
	}
	if cbDowntime < optDowntime {
		t.Errorf("CB downtime %v beats the omniscient optimum %v — impossible", cbDowntime, optDowntime)
	}
}

func TestIPSEstimateMatchesGroundTruth(t *testing.T) {
	// Off-policy evaluation on simulated exploration should agree with
	// the full-feedback ground truth (this is Fig. 3's mechanism).
	g := newGen(t, 7)
	test := g.Generate(6000)
	expl := learn.SimulateExploration(stats.NewRand(8), test)

	pol := core.PolicyFunc(func(ctx *core.Context) core.Action { return 2 })
	truth := test.MeanReward(pol)
	est, err := (ope.IPS{}).Estimate(pol, expl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-truth) > 4*est.StdErr+0.05 {
		t.Errorf("ips = %v, ground truth = %v (se %v)", est.Value, truth, est.StdErr)
	}
}

func TestNormalizeRewards(t *testing.T) {
	ds := core.Dataset{
		{Reward: 0, Propensity: 0.5},   // no downtime → 1
		{Reward: -10, Propensity: 0.5}, // 10 min downtime
		{Reward: -99, Propensity: 0.5}, // clamped
	}
	out := NormalizeRewards(ds, 20)
	if out[0].Reward != 1 {
		t.Errorf("r0 = %v", out[0].Reward)
	}
	if out[1].Reward != 0.5 {
		t.Errorf("r1 = %v", out[1].Reward)
	}
	if out[2].Reward != 0 {
		t.Errorf("r2 = %v (clamp)", out[2].Reward)
	}
	// Original untouched.
	if ds[0].Reward != 0 || ds[1].Reward != -10 {
		t.Error("NormalizeRewards should not mutate its input")
	}
	for _, d := range out {
		if d.Reward < 0 || d.Reward > 1 {
			t.Errorf("normalized reward %v out of [0,1]", d.Reward)
		}
	}
}

func TestNormalizedWithinMaxPossible(t *testing.T) {
	g := newGen(t, 9)
	expl := learn.SimulateExploration(stats.NewRand(10), g.Generate(2000))
	norm := NormalizeRewards(expl, g.MaxPossibleDowntime())
	lo, hi := norm.RewardRange()
	if lo < 0 || hi > 1 {
		t.Errorf("normalized range [%v, %v]", lo, hi)
	}
	// Recoveries at ~0 downtime should push the top near 1.
	if hi < 0.9 {
		t.Errorf("top of range %v suspiciously low", hi)
	}
}

// TestOptimalExpectedDowntime reads the omniscient policy's downtime the
// way fig4 does: a plausible lower bound the max-wait default exceeds.
func TestOptimalExpectedDowntime(t *testing.T) {
	opt := -newGen(t, 11).Generate(4000).OptimalMeanReward(false)
	if opt <= 0 || opt > 15 {
		t.Errorf("optimal downtime = %v, implausible", opt)
	}
	// The default (max wait) must be worse than optimal.
	g := newGen(t, 11)
	def := -g.Generate(4000).MeanReward(DefaultPolicy())
	if def <= opt {
		t.Errorf("default %v should exceed optimal %v", def, opt)
	}
}

func TestScaleByVMs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ScaleByVMs = true
	g, err := NewGenerator(stats.NewRand(12), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := g.Generate(1000)
	// Scaled rewards should have larger magnitude on average than
	// unscaled ones (VMs >= 1, often > 1).
	g2 := newGen(t, 12)
	ds2 := g2.Generate(1000)
	var scaled, plain stats.Welford
	for i := range ds {
		for _, r := range ds[i].Rewards {
			scaled.Add(-r)
		}
		for _, r := range ds2[i].Rewards {
			plain.Add(-r)
		}
	}
	if scaled.Mean() <= plain.Mean() {
		t.Errorf("VM scaling should inflate downtime cost: %v <= %v", scaled.Mean(), plain.Mean())
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a := newGen(t, 42).Generate(100)
	b := newGen(t, 42).Generate(100)
	for i := range a {
		if a[i].Rewards[0] != b[i].Rewards[0] {
			t.Fatal("same seed should generate identical datasets")
		}
	}
}
