package stats

import "math/rand"

// NewRand returns a seeded *rand.Rand. Every experiment in this repository
// threads one of these explicitly so that results are reproducible.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Split derives a child RNG from a parent, consuming one value from the
// parent stream. Use it to give independent streams to concurrent actors
// (servers, workload generators, resimulation replicas) without sharing a
// single *rand.Rand across goroutines.
func Split(parent *rand.Rand) *rand.Rand {
	return rand.New(rand.NewSource(parent.Int63()))
}

// SubstreamSeed derives the seed of replicate index's RNG substream from a
// root seed. Unlike Split, which consumes from a parent stream (so replicate
// k's stream depends on how much replicates 0..k-1 drew), the derivation is
// a pure function of (root, index): the same pair always yields the same
// seed, no matter which goroutine computes it or in what order — the
// property the deterministic parallel replicate scheduler rests on.
//
// The mix is SplitMix64-style. Distinct indices are guaranteed distinct
// seeds for a fixed root: index is scaled by an odd constant (injective mod
// 2^64) and mix64 is a bijection, so the composition cannot collide.
func SubstreamSeed(root, index int64) int64 {
	h := mix64(uint64(root) ^ 0x9E3779B97F4A7C15)
	return int64(mix64(h ^ (uint64(index)*0xD1B54A32D192ED03 + 0x8CB92BA72F3D8DD7)))
}

// mix64 is the SplitMix64 finalizer: a bijection on uint64 with strong
// avalanche, so consecutive indices land on statistically unrelated seeds.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Substream returns the seeded RNG of replicate index under the given root
// seed: NewRand(SubstreamSeed(root, index)).
func Substream(root, index int64) *rand.Rand {
	return NewRand(SubstreamSeed(root, index))
}

// Categorical draws an index from the (not necessarily normalized)
// non-negative weight vector w. It returns -1 if the total weight is zero
// or w is empty.
func Categorical(r *rand.Rand, w []float64) int {
	total := 0.0
	for _, v := range w {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return -1
	}
	u := r.Float64() * total
	cum := 0.0
	for i, v := range w {
		if v <= 0 {
			continue
		}
		cum += v
		if u < cum {
			return i
		}
	}
	// Floating-point slack: return the last positive-weight index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i
		}
	}
	return -1
}
