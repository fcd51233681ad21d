package lbsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/learn"
)

// FitCBPolicy trains the Table 2 "CB policy" from harvested exploration
// data: a shared linear latency model over per-action features
// [conns_s, onehot(s)] whose greedy argmin is the routing policy. Because
// the one-hot terms absorb each server's base latency, the learned policy
// generalizes least-loaded to account for server speed differences.
func FitCBPolicy(expl core.Dataset) (core.Policy, error) {
	if len(expl) == 0 {
		return nil, core.ErrNoData
	}
	model, err := learn.FitRewardModel(expl, learn.FitOptions{Lambda: 1e-4})
	if err != nil {
		return nil, fmt.Errorf("lbsim: fitting CB latency model: %w", err)
	}
	return model.GreedyPolicy(true), nil // latency is a cost: minimize
}
