package experiments

import (
	"fmt"
	"io"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/lbsim"
	"repro/internal/ope"
	"repro/internal/parallel"
	"repro/internal/policy"
)

// LongTermParams configures the §5 capstone: fixing the Table 2 blind spot
// with the two remedies the paper proposes — richer exploration (chaos
// outages make the system's failover produce long single-server runs) and
// sequence-level estimators (trajectory importance sampling reweights
// whole windows of decisions rather than single requests).
type LongTermParams struct {
	Seed int64
	// N is the number of logged requests; Horizon the trajectory window
	// length (the "twenty times in a row" scale of §5).
	N, Horizon int
	// Outages is the number of staggered chaos outages injected.
	Outages int
	// Workers bounds the scheduler's concurrency over the two collection
	// passes: 1 runs them serially, <1 selects runtime.NumCPU(). Results are
	// identical for every value — each pass has a fixed seed, and the
	// estimators run serially after both.
	Workers int
	// Config is the Fig. 5 deployment.
	Config lbsim.Config
}

// DefaultLongTermParams uses 20-request windows — the paper's own example
// scale ("almost never choose the same server twenty times in a row").
func DefaultLongTermParams() LongTermParams {
	return LongTermParams{
		Seed: 1, N: 40000, Horizon: 20, Outages: 10,
		Config: lbsim.TwoServerFig5(),
	}
}

// LongTermResult compares per-request IPS against trajectory-level
// estimators on the same chaos-harvested log, with sustained-deployment
// truth for reference.
type LongTermResult struct {
	Params LongTermParams
	// PlainIPS is the per-request estimate of send-to-1's latency (the
	// misleading Table 2 number). TrajIS / PDIS are per-step values from
	// the window-level estimators. Matched counts window-level matches.
	PlainIPS, TrajIS, PDIS float64
	TrajMatched            int
	// Truth is send-to-1's sustained per-request latency measured in the
	// same world (all traffic concentrated on server 1's queue model).
	Truth float64
}

// LongTerm runs the experiment: harvest a chaos-injected request stream,
// group it into fixed windows as trajectories, and evaluate "send to
// server 1 for a whole window" with sequence estimators.
func LongTerm(p LongTermParams) (*LongTermResult, error) {
	if p.N <= 0 || p.Horizon <= 1 || p.Outages <= 0 {
		return nil, fmt.Errorf("experiments: longterm params %+v", p)
	}
	if err := p.Config.Validate(); err != nil {
		return nil, err
	}
	// The chaos-harvested log and the sustained-deployment truth run are
	// independently seeded simulations, so they run as two scheduler tasks.
	var ds core.Dataset
	var truth float64
	err := parallel.Do(p.Workers,
		func() error {
			// Chaos-harvested log: outages on random servers concentrate
			// traffic.
			sched := chaos.RandomSchedule(p.Seed+1, len(p.Config.Servers), p.N, p.Outages, p.N/(2*p.Outages))
			var err error
			ds, err = chaos.Collect(p.Config, sched, p.N, p.Seed)
			if err != nil {
				return fmt.Errorf("experiments: longterm collect: %w", err)
			}
			return nil
		},
		func() error {
			// Truth in the same world: a permanent outage of every other
			// server forces all traffic through server 1's queue — the
			// sustained send-to-1 state the candidate would create.
			truthSched := make(chaos.Schedule, 0, len(p.Config.Servers)-1)
			for s := 1; s < len(p.Config.Servers); s++ {
				truthSched = append(truthSched, chaos.Outage{Server: s, Start: 0, End: p.N})
			}
			truthDS, err := chaos.Collect(p.Config, truthSched, p.N, p.Seed+2)
			if err != nil {
				return fmt.Errorf("experiments: longterm truth: %w", err)
			}
			// Skip the warmup third so the queue is in its sustained state.
			warm := truthDS[len(truthDS)/3:]
			for i := range warm {
				truth += warm[i].Reward
			}
			truth /= float64(len(warm))
			return nil
		},
	)
	if err != nil {
		return nil, err
	}
	// Group consecutive requests into fixed windows (trajectories).
	for i := range ds {
		ds[i].Tag = fmt.Sprintf("w%06d", ds[i].Seq/int64(p.Horizon))
	}
	candidate := policy.Constant{A: 0}

	// Per-request IPS over the full log.
	plain, err := (ope.IPS{}).Estimate(candidate, ds)
	if err != nil {
		return nil, err
	}
	trajs := core.SplitTrajectories(ds)
	tis, err := (ope.TrajectoryIS{Gamma: 1}).EstimateTrajectories(candidate, trajs)
	if err != nil {
		return nil, err
	}

	h := float64(p.Horizon)
	// Plain trajectory IS divides by ALL windows, most of which cannot
	// match a 20-step constant sequence, so report the self-normalized
	// per-step value (ΣwG / h·Σw) — the SNIPS of sequences — which is
	// directly comparable to a per-request latency.
	trajPerStep := selfNormalizedPerStep(candidate, trajs, h, false)
	pdisPerStep := selfNormalizedPerStep(candidate, trajs, h, true)
	return &LongTermResult{
		Params:      p,
		PlainIPS:    plain.Value,
		TrajIS:      trajPerStep,
		PDIS:        pdisPerStep,
		TrajMatched: tis.Matches,
		Truth:       truth,
	}, nil
}

// selfNormalizedPerStep computes the weighted per-step return over
// trajectories: Σ w_i G_i / (h · Σ w_i), with per-decision weighting when
// perDecision is set (each step's reward weighted by its own prefix ratio,
// normalized by the prefix-weight sums).
func selfNormalizedPerStep(candidate core.Policy, trajs []core.Trajectory, h float64, perDecision bool) float64 {
	num, den := 0.0, 0.0
	for _, tr := range trajs {
		w := 1.0
		for j := range tr {
			d := &tr[j]
			// Simulation propensities are positive by construction; a
			// malformed step zeroes the trajectory weight, dropping it.
			rho, _ := core.ImportanceWeight(core.ActionProb(candidate, &d.Context, d.Action), d.Propensity)
			w *= rho
			if perDecision {
				num += w * d.Reward
				den += w
				if w == 0 {
					break
				}
				continue
			}
			if w == 0 {
				break
			}
		}
		if !perDecision && w > 0 {
			num += w * tr.Return(1)
			den += w * h
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// WriteTo renders the comparison.
func (r *LongTermResult) WriteTo(w io.Writer) (int64, error) {
	s := fmt.Sprintf(
		"Long-term effects (§5): evaluating sustained send-to-1 from chaos-harvested data\n"+
			"%-42s %.3fs   ← misleading (A1 violation)\n"+
			"%-42s %.3fs   (%d matched windows of %d)\n"+
			"%-42s %.3fs\n"+
			"%-42s %.3fs\n",
		"per-request ips", r.PlainIPS,
		"trajectory IS (per step, self-normalized)", r.TrajIS, r.TrajMatched, r.Params.Horizon,
		"per-decision IS (per step)", r.PDIS,
		"sustained deployment truth", r.Truth)
	n, err := io.WriteString(w, s)
	return int64(n), err
}
