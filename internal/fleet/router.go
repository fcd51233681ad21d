// Package fleet federates N harvestd shards behind an aggregation tier:
// a deterministic consistent-hash router assigns ingest sources to shards,
// and an Aggregator periodically pulls each shard's /snapshot, merges the
// order-insensitive estimator state, and serves fleet-wide estimates,
// diagnostics, and metrics from the merged view — the fan-in aggregation
// shape of cosi-style protocol trees, flattened to one tier because the
// estimator state is a few KB per shard.
//
//	sources ──router──▶ shard harvestd₁..N (own logs, checkpoints, /snapshot)
//	                         │pull (HTTP, timeout+backoff, stale window)
//	          aggregator ◀───┘
//	          /estimates /evidence /diagnostics /metrics /shards /route ◀── merged state
package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Router deterministically assigns ingest-source keys to shards by
// rendezvous (highest-random-weight) hashing: every key scores every shard
// and goes to the highest score. Two properties matter for a fleet:
//
//   - Determinism: the assignment is a pure function of (key, shard set),
//     independent of configuration order — every router with the same shard
//     list routes identically, so producers and operators agree without
//     coordination.
//   - Minimal movement: adding a shard moves only the keys the new shard
//     wins; removing one moves only its own keys. No ring to rebalance.
type Router struct {
	shards []string // sorted, unique
}

// NewRouter builds a router over the given shard names. Names must be
// non-empty and unique; order does not matter (the router sorts).
func NewRouter(shards []string) (*Router, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: router needs at least one shard")
	}
	sorted := append([]string(nil), shards...)
	sort.Strings(sorted)
	for i, s := range sorted {
		if s == "" {
			return nil, fmt.Errorf("fleet: empty shard name")
		}
		if i > 0 && sorted[i-1] == s {
			return nil, fmt.Errorf("fleet: duplicate shard %q", s)
		}
	}
	return &Router{shards: sorted}, nil
}

// Shards returns the shard names in canonical (sorted) order.
func (r *Router) Shards() []string {
	return append([]string(nil), r.shards...)
}

// Assign returns the shard owning the key.
func (r *Router) Assign(key string) string {
	return r.shards[r.AssignIndex(key)]
}

// AssignIndex returns the owning shard's index into Shards(). Ties on the
// 64-bit score break toward the lexicographically smaller shard name, so
// the choice stays deterministic even in the astronomically unlikely
// collision case.
func (r *Router) AssignIndex(key string) int {
	best := 0
	bestScore := rendezvousScore(r.shards[0], key)
	for i := 1; i < len(r.shards); i++ {
		if s := rendezvousScore(r.shards[i], key); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Partition groups keys by owning shard; every configured shard appears in
// the result (possibly with no keys), so callers can iterate the full fleet.
func (r *Router) Partition(keys []string) map[string][]string {
	out := make(map[string][]string, len(r.shards))
	for _, s := range r.shards {
		out[s] = nil
	}
	for _, k := range keys {
		s := r.Assign(k)
		out[s] = append(out[s], k)
	}
	return out
}

// rendezvousScore hashes the (shard, key) pair with FNV-1a/64. A NUL
// separator keeps ("ab","c") and ("a","bc") from colliding.
func rendezvousScore(shard, key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(shard))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(key))
	return h.Sum64()
}
