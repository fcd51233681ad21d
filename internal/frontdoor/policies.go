package frontdoor

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/lbsim"
	"repro/internal/learn"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// PolicyResult measures a deployed hierarchical policy pair online.
type PolicyResult struct {
	MeanLatency float64
	// PerEndpoint counts post-warmup requests per endpoint.
	PerEndpoint []int
}

// RunWithPolicies deploys an edge policy (choosing an endpoint from the
// per-endpoint aggregate loads) and one per-cluster policy (choosing a
// server from the cluster's loads) and measures mean latency — applying
// the methodology "to both levels if desired" (Fig. 6). Stochastic
// policies are sampled with exact propensities; deterministic ones run
// as-is.
func RunWithPolicies(cfg Config, edge core.Policy, clusters []core.Policy, seed int64) (*PolicyResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if edge == nil {
		return nil, fmt.Errorf("frontdoor: nil edge policy")
	}
	e := len(cfg.Clusters)
	s := len(cfg.Clusters[0])
	if len(clusters) != e {
		return nil, fmt.Errorf("frontdoor: %d cluster policies for %d endpoints", len(clusters), e)
	}
	for i, cp := range clusters {
		if cp == nil {
			return nil, fmt.Errorf("frontdoor: nil cluster policy %d", i)
		}
	}
	var sim des.Simulator
	r := stats.NewRand(seed)
	conns := make([][]int, e)
	for i := range conns {
		conns[i] = make([]int, s)
	}
	perEndpoint := make([]int, e)
	var lat stats.Welford

	choose := func(pol core.Policy, ctx *core.Context) core.Action {
		if sp, ok := pol.(core.StochasticPolicy); ok {
			dist := sp.Distribution(ctx)
			if i := stats.Categorical(r, dist); i >= 0 {
				return core.Action(i)
			}
			return 0
		}
		a := pol.Act(ctx)
		if int(a) >= ctx.NumActions {
			a = core.Action(ctx.NumActions - 1)
		}
		return a
	}
	handle := func(i int) {
		edgeLoads := make([]int, e)
		for ei := range conns {
			total := 0
			for _, c := range conns[ei] {
				total += c
			}
			edgeLoads[ei] = total
		}
		edgeCtx := lbsim.BuildContext(edgeLoads, 0, 1)
		endpoint := int(choose(edge, &edgeCtx))
		clusterCtx := lbsim.BuildContext(conns[endpoint], 0, 1)
		server := int(choose(clusters[endpoint], &clusterCtx))
		sp := cfg.Clusters[endpoint][server]
		l := sp.Base + sp.Slope*float64(conns[endpoint][server])
		conns[endpoint][server]++
		ep, sv := endpoint, server
		if _, err := sim.After(l, func() { conns[ep][sv]-- }); err != nil {
			panic(err) // unreachable: l > 0
		}
		if i >= cfg.Warmup {
			lat.Add(l)
			perEndpoint[endpoint]++
		}
	}
	if _, err := des.NewPoissonArrivals(&sim, stats.Split(r), cfg.ArrivalRate, cfg.NumRequests, handle); err != nil {
		return nil, err
	}
	if err := sim.RunAll(cfg.NumRequests*4 + 16); err != nil {
		return nil, fmt.Errorf("frontdoor: %w", err)
	}
	return &PolicyResult{MeanLatency: lat.Mean(), PerEndpoint: perEndpoint}, nil
}

// TrainHierarchicalParallel fits CB policies at both levels from a
// harvested run: a shared linear latency model per level, played greedily
// (argmin). This is the optimization step of the methodology applied
// hierarchically. The per-endpoint cluster-model fits run on the
// deterministic scheduler: each fit is a pure function of its endpoint's
// data, so the trained policies are identical for every worker count
// (1 = serial, <1 = runtime.NumCPU()).
func TrainHierarchicalParallel(res *Result, numEndpoints, workers int) (edge core.Policy, clusters []core.Policy, err error) {
	if res == nil || len(res.EdgeData) == 0 {
		return nil, nil, core.ErrNoData
	}
	edgeModel, err := learn.FitRewardModel(res.EdgeData, learn.FitOptions{Lambda: 1e-4})
	if err != nil {
		return nil, nil, fmt.Errorf("frontdoor: edge model: %w", err)
	}
	edge = edgeModel.GreedyPolicy(true) // latency is a cost

	clusters = make([]core.Policy, numEndpoints)
	byEndpoint := make(map[string]core.Dataset)
	for i := range res.ClusterData {
		d := res.ClusterData[i]
		byEndpoint[d.Tag] = append(byEndpoint[d.Tag], d)
	}
	err = parallel.For(workers, numEndpoints, func(ei int) error {
		tag := fmt.Sprintf("ep%d", ei)
		ds := byEndpoint[tag]
		if len(ds) == 0 {
			return fmt.Errorf("frontdoor: no cluster data for endpoint %d", ei)
		}
		m, err := learn.FitRewardModel(ds, learn.FitOptions{Lambda: 1e-4})
		if err != nil {
			return fmt.Errorf("frontdoor: cluster %d model: %w", ei, err)
		}
		clusters[ei] = m.GreedyPolicy(true)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return edge, clusters, nil
}
