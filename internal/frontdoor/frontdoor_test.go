package frontdoor

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/policy"
	"repro/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Clusters = bad.Clusters[:1]
	if err := bad.Validate(); err == nil {
		t.Error("single endpoint should fail")
	}
	bad = DefaultConfig()
	bad.Clusters[1] = bad.Clusters[1][:1]
	if err := bad.Validate(); err == nil {
		t.Error("single-server cluster should fail")
	}
	bad = DefaultConfig()
	bad.Clusters[1] = append(bad.Clusters[1], lbsim.ServerParams{Base: 0.1, Slope: 0.01})
	if err := bad.Validate(); err == nil {
		t.Error("ragged clusters should fail")
	}
	bad = DefaultConfig()
	bad.Clusters[0][0].Base = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero base should fail")
	}
	bad = DefaultConfig()
	bad.ArrivalRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero rate should fail")
	}
}

func TestRunHarvestsAllLevels(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRequests = 6000
	cfg.Warmup = 1000
	res, err := Run(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantN := cfg.NumRequests - cfg.Warmup
	if len(res.EdgeData) != wantN || len(res.ClusterData) != wantN || len(res.FlatData) != wantN {
		t.Fatalf("dataset sizes %d/%d/%d, want %d",
			len(res.EdgeData), len(res.ClusterData), len(res.FlatData), wantN)
	}
	if err := res.EdgeData.Validate(); err != nil {
		t.Errorf("edge data: %v", err)
	}
	if err := res.ClusterData.Validate(); err != nil {
		t.Errorf("cluster data: %v", err)
	}
	if err := res.FlatData.Validate(); err != nil {
		t.Errorf("flat data: %v", err)
	}
	if p := res.EdgeData.MinPropensity(); p != 0.25 {
		t.Errorf("edge eps = %v, want 0.25", p)
	}
	if p := res.ClusterData.MinPropensity(); p != 0.2 {
		t.Errorf("cluster eps = %v, want 0.2", p)
	}
	if p := res.FlatData.MinPropensity(); p != 0.05 {
		t.Errorf("flat eps = %v, want 0.05", p)
	}
	if res.MeanLatency <= 0 {
		t.Errorf("mean latency = %v", res.MeanLatency)
	}
}

func TestFlatAndHierarchicalActionsAgree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRequests = 3000
	cfg.Warmup = 500
	res, err := Run(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := len(cfg.Clusters[0])
	for i := range res.FlatData {
		flat := int(res.FlatData[i].Action)
		edge := int(res.EdgeData[i].Action)
		cluster := int(res.ClusterData[i].Action)
		if flat != edge*s+cluster {
			t.Fatalf("datapoint %d: flat %d != %d*%d+%d", i, flat, edge, s, cluster)
		}
		if res.FlatData[i].Reward != res.EdgeData[i].Reward {
			t.Fatalf("rewards disagree at %d", i)
		}
	}
}

func TestHierarchyBeatsFlatOnEq1Error(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRequests = 6000
	cfg.Warmup = 1000
	res, err := Run(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	le := res.Errors(2, 1e6, 0.05)
	if le.FlatError <= le.EdgeError || le.FlatError <= le.ClusterError {
		t.Errorf("flat error %v should exceed per-level errors %v/%v",
			le.FlatError, le.EdgeError, le.ClusterError)
	}
	if le.HierarchicalError >= le.FlatError {
		t.Errorf("hierarchical total %v should beat flat %v", le.HierarchicalError, le.FlatError)
	}
	// ε ratio: flat explores each of 20 actions at 1/20; edge at 1/4.
	// Error ratio should be √(ε_edge/ε_flat) = √5 per level.
	wantRatio := math.Sqrt(5)
	if got := le.FlatError / le.EdgeError; math.Abs(got-wantRatio) > 0.01 {
		t.Errorf("flat/edge error ratio = %v, want √5 ≈ %v", got, wantRatio)
	}
}

func TestClusterTrajectoriesTagged(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRequests = 2000
	cfg.Warmup = 100
	res, err := Run(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]bool{}
	for i := range res.ClusterData {
		tags[res.ClusterData[i].Tag] = true
	}
	if len(tags) != len(cfg.Clusters) {
		t.Errorf("saw %d endpoint tags, want %d", len(tags), len(cfg.Clusters))
	}
}

func TestRunWithPoliciesValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumRequests = 1000
	cfg.Warmup = 100
	uniform := func(seed int64) core.Policy {
		return policy.UniformRandom{R: stats.NewRand(seed)}
	}
	clusters := make([]core.Policy, len(cfg.Clusters))
	for i := range clusters {
		clusters[i] = uniform(int64(i))
	}
	if _, err := RunWithPolicies(cfg, nil, clusters, 1); err == nil {
		t.Error("nil edge policy should fail")
	}
	if _, err := RunWithPolicies(cfg, uniform(9), clusters[:1], 1); err == nil {
		t.Error("cluster policy count mismatch should fail")
	}
	clusters[2] = nil
	if _, err := RunWithPolicies(cfg, uniform(9), clusters, 1); err == nil {
		t.Error("nil cluster policy should fail")
	}
	bad := cfg
	bad.ArrivalRate = 0
	clusters[2] = uniform(2)
	if _, err := RunWithPolicies(bad, uniform(9), clusters, 1); err == nil {
		t.Error("bad config should fail")
	}
}

func TestHierarchicalCBBeatsRandomOnline(t *testing.T) {
	// Harvest under random routing, train CB at both levels, deploy, and
	// compare against all-random — applying the methodology at each level
	// of the Fig. 6 hierarchy.
	cfg := DefaultConfig()
	cfg.NumRequests = 20000
	cfg.Warmup = 2000
	harvested, err := Run(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	edge, clusters, err := TrainHierarchicalParallel(harvested, len(cfg.Clusters), 1)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := RunWithPolicies(cfg, edge, clusters, 6)
	if err != nil {
		t.Fatal(err)
	}
	randomClusters := make([]core.Policy, len(cfg.Clusters))
	for i := range randomClusters {
		randomClusters[i] = policy.UniformRandom{R: stats.NewRand(int64(100 + i))}
	}
	random, err := RunWithPolicies(cfg, policy.UniformRandom{R: stats.NewRand(7)}, randomClusters, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cb.MeanLatency >= random.MeanLatency {
		t.Errorf("hierarchical CB %v should beat random %v", cb.MeanLatency, random.MeanLatency)
	}
	total := 0
	for _, n := range cb.PerEndpoint {
		total += n
	}
	if total != cfg.NumRequests-cfg.Warmup {
		t.Errorf("per-endpoint counts sum to %d, want %d", total, cfg.NumRequests-cfg.Warmup)
	}
}

func TestTrainHierarchicalValidation(t *testing.T) {
	if _, _, err := TrainHierarchicalParallel(nil, 4, 1); err == nil {
		t.Error("nil result should fail")
	}
	if _, _, err := TrainHierarchicalParallel(&Result{}, 4, 1); err == nil {
		t.Error("empty result should fail")
	}
}
