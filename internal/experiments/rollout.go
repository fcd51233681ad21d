package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/lbsim"
	"repro/internal/ope"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/stats"
)

// RolloutParams configures the staged-rollout study: deploy the tempting
// send-to-1 policy on an increasing share of traffic (blended with the
// incumbent random policy) and watch its off-policy estimate converge to
// its true deployed value as the rollout proceeds.
//
// This connects the paper's introduction (staged rollouts as the status
// quo) with its §5 failure mode: under the A1 violation the 0%-share
// estimate is misleading (Table 2's 0.31 vs 0.70), and the *reason* staged
// rollouts exist is precisely that partial exposure starts to surface the
// feedback effects that counterfactual evaluation cannot see.
type RolloutParams struct {
	Seed   int64
	Shares []float64
	Config lbsim.Config
	// Workers bounds the per-share scheduler's concurrency: 1 runs the
	// serial path, <1 selects runtime.NumCPU(). Results are identical for
	// every value — each share's blend RNGs and run seed derive from a
	// (seed, index) substream.
	Workers int
}

// DefaultRolloutParams sweeps five exposure levels on the Fig. 5 setup.
func DefaultRolloutParams() RolloutParams {
	cfg := lbsim.TwoServerFig5()
	cfg.NumRequests = 20000
	cfg.Warmup = 2000
	return RolloutParams{
		Seed:   1,
		Shares: []float64{0, 0.25, 0.5, 0.75, 1},
		Config: cfg,
	}
}

// RolloutRow is one exposure level.
type RolloutRow struct {
	Share float64
	// Estimate is the IPS estimate of the *fully deployed* candidate from
	// this blend's exploration data; BlendLatency the blend's own online
	// mean latency.
	Estimate, BlendLatency float64
	// Matches counts datapoints usable for the candidate.
	Matches int
}

// RolloutResult is the sweep plus the candidate's true deployed value.
type RolloutResult struct {
	Params RolloutParams
	Rows   []RolloutRow
	// TrueDeployed is send-to-1's actual mean latency at 100%.
	TrueDeployed float64
}

// Rollout runs the sweep.
func Rollout(p RolloutParams) (*RolloutResult, error) {
	if len(p.Shares) == 0 {
		return nil, fmt.Errorf("experiments: rollout needs shares")
	}
	if err := p.Config.Validate(); err != nil {
		return nil, err
	}
	root := stats.NewRand(p.Seed)
	candidate := policy.Constant{A: 0}
	deployed, err := lbsim.Run(p.Config, candidate, root.Int63(), false)
	if err != nil {
		return nil, fmt.Errorf("experiments: rollout full deployment: %w", err)
	}
	res := &RolloutResult{Params: p, TrueDeployed: deployed.MeanLatency}
	res.Rows = make([]RolloutRow, len(p.Shares))
	base := root.Int63()
	err = parallel.ForSeeded(p.Workers, len(p.Shares), base, func(i int, r *rand.Rand) error {
		share := p.Shares[i]
		blend, err := policy.NewDynamicBlend(candidate, policy.UniformRandom{R: stats.Split(r)}, share, stats.Split(r))
		if err != nil {
			return fmt.Errorf("experiments: rollout share %v: %w", share, err)
		}
		run, err := lbsim.Run(p.Config, blend, r.Int63(), true)
		if err != nil {
			return fmt.Errorf("experiments: rollout share %v: %w", share, err)
		}
		est, err := (ope.IPS{}).Estimate(candidate, run.Exploration)
		if err != nil {
			return fmt.Errorf("experiments: rollout share %v ips: %w", share, err)
		}
		res.Rows[i] = RolloutRow{
			Share:        share,
			Estimate:     est.Value,
			BlendLatency: run.MeanLatency,
			Matches:      est.Matches,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// WriteTo renders the sweep.
func (r *RolloutResult) WriteTo(w io.Writer) (int64, error) {
	var total int64
	c, err := fmt.Fprintf(w, "Staged rollout of send-to-1 (true deployed latency %.3fs)\n%-8s %-18s %-16s %s\n",
		r.TrueDeployed, "share", "ips estimate (s)", "blend online (s)", "matches")
	total += int64(c)
	if err != nil {
		return total, err
	}
	for _, row := range r.Rows {
		c, err := fmt.Fprintf(w, "%-8.2f %-18.3f %-16.3f %d\n",
			row.Share, row.Estimate, row.BlendLatency, row.Matches)
		total += int64(c)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
