package cachesim

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ope"
)

// RandomEvictor evicts a uniformly random candidate — Redis's
// maxmemory-policy allkeys-random and the paper's exploration source.
type RandomEvictor struct {
	R *rand.Rand
}

// Name implements Evictor.
func (RandomEvictor) Name() string { return "random" }

// Choose implements Evictor.
func (e RandomEvictor) Choose(cands []Candidate, now float64) int {
	return e.R.Intn(len(cands))
}

// Distribution implements StochasticEvictor: uniform over candidates.
func (RandomEvictor) Distribution(cands []Candidate, now float64) []float64 {
	d := make([]float64, len(cands))
	p := 1 / float64(len(cands))
	for i := range d {
		d[i] = p
	}
	return d
}

// LRUEvictor evicts the least-recently-used candidate (Redis approximated
// LRU: true LRU restricted to the sampled candidates).
type LRUEvictor struct{}

// Name implements Evictor.
func (LRUEvictor) Name() string { return "lru" }

// Choose implements Evictor.
func (LRUEvictor) Choose(cands []Candidate, now float64) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].LastAccess < cands[best].LastAccess {
			best = i
		}
	}
	return best
}

// LFUEvictor evicts the least-frequently-used candidate.
type LFUEvictor struct{}

// Name implements Evictor.
func (LFUEvictor) Name() string { return "lfu" }

// Choose implements Evictor.
func (LFUEvictor) Choose(cands []Candidate, now float64) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if cands[i].Frequency < cands[best].Frequency {
			best = i
		}
	}
	return best
}

// FreqSizeEvictor evicts the candidate with the lowest frequency/size ratio
// — the paper's manually designed policy that "explicitly considers item
// size" and wins Table 3 by ten points: keeping bytes that are accessed
// often per unit of space.
type FreqSizeEvictor struct{}

// Name implements Evictor.
func (FreqSizeEvictor) Name() string { return "freq/size" }

// Choose implements Evictor.
func (FreqSizeEvictor) Choose(cands []Candidate, now float64) int {
	best := 0
	bestV := math.Inf(1)
	for i := range cands {
		v := float64(cands[i].Frequency) / float64(cands[i].Size)
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// CBEvictor evicts greedily by a learned reward model: the reward of
// evicting an item is the time until it is next requested (paper Table 1,
// "Reward (CB): [+] time to next access of evicted item"), so the greedy
// action evicts the candidate with the largest predicted next-access gap.
// This is the Table 3 "CB policy".
type CBEvictor struct {
	Model ope.RewardModel
}

// Name implements Evictor.
func (CBEvictor) Name() string { return "cb" }

// Choose implements Evictor.
func (e CBEvictor) Choose(cands []Candidate, now float64) int {
	ctx := ContextFromCandidates(cands, now)
	best := 0
	bestV := math.Inf(-1)
	for i := range cands {
		v := e.Model.Predict(&ctx, core.Action(i))
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// ContextFromCandidates encodes a sampled candidate set as a CB context
// with per-action features — the bridge between cache state and the
// core/ope/learn stack. The same encoding is used when harvesting eviction
// logs, so models trained offline drive CBEvictor online unchanged.
func ContextFromCandidates(cands []Candidate, now float64) core.Context {
	af := make([]core.Vector, len(cands))
	for i, c := range cands {
		af[i] = Featurize(c, now)
	}
	return core.Context{ActionFeatures: af, NumActions: len(cands)}
}
