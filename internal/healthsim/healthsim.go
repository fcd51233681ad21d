// Package healthsim is the machine-health substrate: a generative model of
// the Azure Compute scenario in §4 of "Harvesting Randomness to Optimize
// Distributed Systems" (HotNets 2017).
//
// The real scenario: a machine stops responding; the controller must decide
// how long to wait before rebooting it. Waiting can pay off (the machine
// self-recovers, avoiding an expensive reboot) or cost dearly (downtime
// accrues while nothing recovers). Azure's deployed policy waited the
// maximum time (10 minutes), which reveals the downtime of *every* shorter
// wait — a full-feedback dataset. The paper exploits this to both simulate
// partial-feedback exploration and score policies against ground truth.
//
// Our substitute preserves exactly that structure. Each failure episode
// draws a machine context (hardware SKU, OS, age, failure history, VM
// count) and latent recovery behaviour whose distribution depends on the
// context. For a wait of w minutes:
//
//	downtime(w) = t_recover                 if the machine self-recovers at t ≤ w
//	            = w + rebootCost(context)   otherwise
//
// which is computable for every w in {1..9} from one latent draw — full
// feedback, like the paper's dataset. Rewards are negative downtime,
// optionally scaled by the number of customer VMs on the machine.
package healthsim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/learn"
)

// NumWaitActions is the paper's action count: wait w ∈ {1, 2, ..., 9}
// minutes (action a means waiting a+1 minutes).
const NumWaitActions = 9

// WaitMinutes converts an action index to its wait time in minutes.
func WaitMinutes(a core.Action) float64 { return float64(a) + 1 }

// Config parameterizes the generative model. Zero fields take defaults from
// DefaultConfig.
type Config struct {
	// NumSKUs / NumOSes set the one-hot hardware and OS vocabulary.
	NumSKUs, NumOSes int
	// MaxPriorFailures bounds the failure-history feature.
	MaxPriorFailures int
	// MaxVMs bounds the per-machine VM count (reward scaling).
	MaxVMs int
	// RebootBase/RebootPerSKU shape the reboot cost in minutes.
	RebootBase, RebootPerSKU float64
	// ScaleByVMs multiplies downtime by the VM count (the paper's
	// "[-] total downtime (scaled by # of VMs)").
	ScaleByVMs bool
}

// DefaultConfig returns the configuration used by the repository's
// experiments.
func DefaultConfig() Config {
	return Config{
		NumSKUs:          4,
		NumOSes:          3,
		MaxPriorFailures: 5,
		MaxVMs:           8,
		RebootBase:       6,
		RebootPerSKU:     1.5,
	}
}

// Episode is one machine-failure event with its latent recovery draw.
type Episode struct {
	SKU           int
	OS            int
	Age           float64 // years
	PriorFailures int
	VMs           int
	// Recovers reports whether the machine would self-recover at all
	// within the horizon; RecoverAt is the recovery time in minutes.
	Recovers  bool
	RecoverAt float64
}

// Generator draws failure episodes.
type Generator struct {
	cfg Config
	r   *rand.Rand
}

// NewGenerator validates the config and builds a generator.
func NewGenerator(r *rand.Rand, cfg Config) (*Generator, error) {
	if r == nil {
		return nil, fmt.Errorf("healthsim: nil rand")
	}
	def := DefaultConfig()
	if cfg.NumSKUs <= 0 {
		cfg.NumSKUs = def.NumSKUs
	}
	if cfg.NumOSes <= 0 {
		cfg.NumOSes = def.NumOSes
	}
	if cfg.MaxPriorFailures <= 0 {
		cfg.MaxPriorFailures = def.MaxPriorFailures
	}
	if cfg.MaxVMs <= 0 {
		cfg.MaxVMs = def.MaxVMs
	}
	if cfg.RebootBase <= 0 {
		cfg.RebootBase = def.RebootBase
	}
	if cfg.RebootPerSKU < 0 {
		cfg.RebootPerSKU = def.RebootPerSKU
	}
	return &Generator{cfg: cfg, r: r}, nil
}

// Dim returns the feature dimension of generated contexts.
func (g *Generator) Dim() int {
	return g.cfg.NumSKUs + g.cfg.NumOSes + 3 // + age, priorFailures, vms
}

// drawEpisode samples a machine and its latent recovery behaviour.
func (g *Generator) drawEpisode() Episode {
	e := Episode{
		SKU:           g.r.Intn(g.cfg.NumSKUs),
		OS:            g.r.Intn(g.cfg.NumOSes),
		Age:           g.r.Float64() * 5,
		PriorFailures: g.r.Intn(g.cfg.MaxPriorFailures + 1),
		VMs:           1 + g.r.Intn(g.cfg.MaxVMs),
	}
	// Self-recovery probability: newer SKUs and machines with few prior
	// failures recover more often. Range ≈ [0.15, 0.9].
	pRec := 0.9 - 0.12*float64(e.SKU) - 0.08*float64(e.PriorFailures) - 0.02*e.Age
	if pRec < 0.15 {
		pRec = 0.15
	}
	e.Recovers = g.r.Float64() < pRec
	if e.Recovers {
		// Recovery time: OS-dependent mean, exponential tail. Mean in
		// [1.5, 6.5] minutes so the optimal wait genuinely varies by
		// context.
		mean := 1.5 + 1.8*float64(e.OS) + 0.15*float64(e.PriorFailures)
		e.RecoverAt = g.r.ExpFloat64() * mean
		if e.RecoverAt > 60 {
			e.RecoverAt = 60
		}
	}
	return e
}

// rebootCost returns the reboot penalty in minutes for the episode's machine.
func (g *Generator) rebootCost(e *Episode) float64 {
	return g.cfg.RebootBase + g.cfg.RebootPerSKU*float64(e.SKU) + 0.2*float64(e.OS)
}

// Downtime returns the downtime in minutes if the controller waits w
// minutes before rebooting.
func (g *Generator) Downtime(e *Episode, waitMinutes float64) float64 {
	if e.Recovers && e.RecoverAt <= waitMinutes {
		return e.RecoverAt
	}
	return waitMinutes + g.rebootCost(e)
}

// Features encodes the episode's observable context (the latent recovery
// draw is NOT included — that is the whole point).
func (g *Generator) Features(e *Episode) core.Vector {
	v := make(core.Vector, g.Dim())
	v[e.SKU] = 1
	v[g.cfg.NumSKUs+e.OS] = 1
	base := g.cfg.NumSKUs + g.cfg.NumOSes
	v[base] = e.Age / 5
	v[base+1] = float64(e.PriorFailures) / float64(g.cfg.MaxPriorFailures)
	v[base+2] = float64(e.VMs) / float64(g.cfg.MaxVMs)
	return v
}

// Generate draws n episodes as a full-feedback dataset: every row carries
// the reward (negative downtime) of all nine wait actions.
func (g *Generator) Generate(n int) learn.FullFeedbackDataset {
	ds := make(learn.FullFeedbackDataset, n)
	for i := range ds {
		e := g.drawEpisode()
		rewards := make([]float64, NumWaitActions)
		scale := 1.0
		if g.cfg.ScaleByVMs {
			scale = float64(e.VMs)
		}
		for a := 0; a < NumWaitActions; a++ {
			rewards[a] = -g.Downtime(&e, WaitMinutes(core.Action(a))) * scale
		}
		ds[i] = learn.FullFeedbackRow{
			Context: core.Context{
				Features:   g.Features(&e),
				NumActions: NumWaitActions,
			},
			Rewards: rewards,
		}
	}
	return ds
}

// DefaultPolicy is the paper's safe deployed policy: wait the maximum time.
// (In the paper the max is 10 minutes; within the CB action set it is the
// largest wait, 9 minutes.)
func DefaultPolicy() core.Policy {
	return core.PolicyFunc(func(ctx *core.Context) core.Action {
		return core.Action(ctx.NumActions - 1)
	})
}

// NormalizeRewards maps raw negative-downtime rewards into [0, 1] (1 = no
// downtime) so the distribution-free bounds of Eq. 1 apply directly. It
// returns a copy; maxDowntime clamps.
func NormalizeRewards(ds core.Dataset, maxDowntime float64) core.Dataset {
	if maxDowntime <= 0 {
		maxDowntime = 1
	}
	out := make(core.Dataset, len(ds))
	copy(out, ds)
	for i := range out {
		d := -out[i].Reward // downtime
		if d < 0 {
			d = 0
		}
		if d > maxDowntime {
			d = maxDowntime
		}
		out[i].Reward = 1 - d/maxDowntime
	}
	return out
}

// MaxPossibleDowntime bounds the downtime of any action for normalization:
// the longest wait plus the largest reboot cost.
func (g *Generator) MaxPossibleDowntime() float64 {
	return float64(NumWaitActions) +
		g.cfg.RebootBase + g.cfg.RebootPerSKU*float64(g.cfg.NumSKUs-1) + 0.2*float64(g.cfg.NumOSes-1)
}
