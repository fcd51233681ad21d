package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// histShards is the number of independently locked accumulators inside one
// Histogram. Writers spread over the shards round-robin, so eight
// goroutines hammering Observe rarely contend; readers merge the shards in
// index order, which keeps float summation order fixed.
const histShards = 8

// Histogram is a fixed-bucket latency/size histogram designed like the
// rest of the repository's accumulators: lock-sharded on the write path,
// its shards merged into one snapshot on the read path. The bucket layout
// is immutable after construction — the shards' merge depends on it.
type Histogram struct {
	buckets []float64 // ascending upper bounds; +Inf bucket is implicit
	next    atomic.Uint64
	shards  [histShards]histShard
}

type histShard struct {
	mu     sync.Mutex
	counts []uint64 // len(buckets)+1; last slot is the +Inf overflow
	sum    float64
	count  uint64
}

// NewHistogram builds a histogram over the given ascending bucket upper
// bounds. The bounds are copied; at least one is required.
func NewHistogram(buckets []float64) (*Histogram, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("obs: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			return nil, fmt.Errorf("obs: histogram buckets not ascending at %d: %v <= %v",
				i, buckets[i], buckets[i-1])
		}
	}
	h := &Histogram{buckets: append([]float64(nil), buckets...)}
	for i := range h.shards {
		h.shards[i].counts = make([]uint64, len(buckets)+1)
	}
	return h, nil
}

// DefLatencyBuckets is the default layout for request-latency histograms:
// 100µs to 10s, roughly 1-2.5-5 per decade — wide enough for both the
// microsecond-scale simulated backends and multi-second tail stalls.
func DefLatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
	}
}

// Observe records one value. NaN observations are dropped — one poisoned
// sample must not turn the running sum into NaN forever. Safe for
// concurrent use.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Smallest bucket whose upper bound is >= v ("le" semantics);
	// len(buckets) selects the +Inf overflow slot.
	b := sort.SearchFloat64s(h.buckets, v)
	sh := &h.shards[h.next.Add(1)%histShards]
	sh.mu.Lock()
	sh.counts[b]++
	sh.sum += v
	sh.count++
	sh.mu.Unlock()
}

// HistSnapshot is a point-in-time view of a histogram. Counts
// holds per-bucket (non-cumulative) counts with the +Inf overflow last;
// exposition converts to cumulative "le" counts.
type HistSnapshot struct {
	Buckets []float64
	Counts  []uint64
	Sum     float64
	Count   uint64
}

// Snapshot merges the shards in index order and returns the aggregate.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Buckets: append([]float64(nil), h.buckets...),
		Counts:  make([]uint64, len(h.buckets)+1),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for j, c := range sh.counts {
			s.Counts[j] += c
		}
		s.Sum += sh.sum
		s.Count += sh.count
		sh.mu.Unlock()
	}
	return s
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts
// by linear interpolation inside the selected bucket. The +Inf bucket
// reports its lower bound — a histogram cannot see past its last edge.
func (s *HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := uint64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i == len(s.Buckets) { // +Inf bucket
				return s.Buckets[len(s.Buckets)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = s.Buckets[i-1]
			}
			hi := s.Buckets[i]
			frac := (rank - float64(cum-c)) / float64(c)
			return lo + frac*(hi-lo)
		}
	}
	return s.Buckets[len(s.Buckets)-1]
}
