package repro

// Integration smoke tests: each runs one scenario's full §3 pipeline —
// scavenge from a live(ly simulated) system, infer propensities, evaluate
// and optimize offline, then verify online — crossing every package
// boundary the corresponding example crosses, in-process.

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/harvester"
	"repro/internal/healthsim"
	"repro/internal/lbsim"
	"repro/internal/learn"
	"repro/internal/ope"
	"repro/internal/policy"
	"repro/internal/stats"
)

func TestIntegrationMachineHealthPipeline(t *testing.T) {
	root := stats.NewRand(1)
	gen, err := healthsim.NewGenerator(stats.Split(root), healthsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	train := gen.Generate(6000)
	test := gen.Generate(3000)
	expl := learn.SimulateExploration(stats.Split(root), train)

	// Step 2 alternative: re-infer the (uniform) propensities by
	// regression and confirm the estimate is unaffected.
	inferred, err := (harvester.LogisticPropensity{}).Infer(expl)
	if err != nil {
		t.Fatal(err)
	}
	pol := core.PolicyFunc(func(*core.Context) core.Action { return 3 })
	norm := healthsim.NormalizeRewards(expl, gen.MaxPossibleDowntime())
	normInferred := healthsim.NormalizeRewards(inferred, gen.MaxPossibleDowntime())
	a, err := (ope.IPS{}).Estimate(pol, norm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (ope.IPS{}).Estimate(pol, normInferred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Value-b.Value) > 0.05 {
		t.Errorf("inferred-propensity estimate %v drifted from known %v", b.Value, a.Value)
	}

	// Step 3: optimize and verify on ground truth.
	model, err := learn.FitRewardModel(expl, learn.FitOptions{NumActions: healthsim.NumWaitActions})
	if err != nil {
		t.Fatal(err)
	}
	cb := -test.MeanReward(model.GreedyPolicy(false))
	def := -test.MeanReward(healthsim.DefaultPolicy())
	if cb >= def {
		t.Errorf("CB downtime %v should beat default %v", cb, def)
	}
}

func TestIntegrationLoadBalancingPipeline(t *testing.T) {
	cfg := lbsim.Table2Config()
	cfg.NumRequests = 12000
	cfg.Warmup = 1200
	root := stats.NewRand(2)
	logRun, err := lbsim.Run(cfg, policy.UniformRandom{R: stats.Split(root)}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the exploration data through JSONL (the storage format).
	var buf strings.Builder
	if err := logRun.Exploration.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	ds, err := core.ReadJSONL(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := lbsim.FitCBPolicy(ds)
	if err != nil {
		t.Fatal(err)
	}
	online, err := lbsim.Run(cfg, cb, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if online.MeanLatency >= logRun.MeanLatency {
		t.Errorf("CB %v should beat the random logging run %v", online.MeanLatency, logRun.MeanLatency)
	}
}

func TestIntegrationCachingPipeline(t *testing.T) {
	w := cachesim.DefaultBigSmall()
	cfg := cachesim.Table3CacheConfig(w)
	root := stats.NewRand(5)
	c, err := cachesim.New(cfg, cachesim.RandomEvictor{R: stats.Split(root)}, stats.Split(root))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cachesim.Replay(c, w, stats.Split(root), 25000); err != nil {
		t.Fatal(err)
	}
	ds, err := harvester.HarvestEvictions(c.EvictionLog(), c.AccessLog(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	model, err := learn.FitRewardModel(ds, learn.FitOptions{Lambda: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// Deploy the learned evictor and the winning heuristic.
	quiet := cfg
	quiet.LogAccesses, quiet.LogEvictions = false, false
	cbCache, err := cachesim.New(quiet, cachesim.CBEvictor{Model: model}, stats.Split(root))
	if err != nil {
		t.Fatal(err)
	}
	cbHR, err := cachesim.Replay(cbCache, w, stats.Split(root), 25000)
	if err != nil {
		t.Fatal(err)
	}
	fsCache, err := cachesim.New(quiet, cachesim.FreqSizeEvictor{}, stats.Split(root))
	if err != nil {
		t.Fatal(err)
	}
	fsHR, err := cachesim.Replay(fsCache, w, stats.Split(root), 25000)
	if err != nil {
		t.Fatal(err)
	}
	if cbHR >= fsHR {
		t.Errorf("greedy CB %v must lose to size-aware %v (the Table 3 lesson)", cbHR, fsHR)
	}
}
