// Package cachesim is the caching substrate: a byte-budgeted key-value
// cache modeled on the Redis scenario of "Harvesting Randomness to Optimize
// Distributed Systems" (HotNets 2017, §3, §5, Table 3).
//
// Like Redis with a maxmemory limit, the cache evicts by sampling a small
// uniform-random subset of resident items and asking a pluggable eviction
// policy to choose the victim among them (Redis's maxmemory-samples
// design). That sampling is precisely the "existing randomness" the paper
// harvests: a random-eviction policy gives every sampled candidate equal
// propensity, and the per-candidate contextual features (size, frequency,
// recency) plus the reconstructed reward (time until the evicted item is
// next requested) form the ⟨x, a, r, p⟩ exploration tuple.
//
// The cache keeps an access log and an eviction log; package harvester
// joins them (look-ahead, as in the paper: "we reconstruct this information
// during step 1 by looking ahead in the logs") to build the CB dataset.
package cachesim

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
)

// Candidate describes one sampled eviction candidate at decision time.
type Candidate struct {
	Key        string
	Size       int64
	LastAccess float64 // virtual time of most recent access
	Frequency  int     // accesses since (re)insertion
	InsertedAt float64 // virtual time of (re)insertion
}

// Featurize encodes a candidate for the CB models: [size, frequency,
// recency, age], lightly scaled. Both the online CB evictor and the offline
// harvester use this same encoding so policies transfer.
func Featurize(c Candidate, now float64) core.Vector {
	return core.Vector{
		float64(c.Size) / 100,
		float64(c.Frequency),
		(now - c.LastAccess) / 100,
		(now - c.InsertedAt) / 100,
	}
}

// Evictor chooses which sampled candidate to evict.
type Evictor interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Choose returns the index into cands of the victim.
	Choose(cands []Candidate, now float64) int
}

// StochasticEvictor additionally exposes the probability of each choice,
// enabling exact propensity logging.
type StochasticEvictor interface {
	Evictor
	Distribution(cands []Candidate, now float64) []float64
}

// AccessRecord is one cache lookup in the access log.
type AccessRecord struct {
	Time float64
	Key  string
	Size int64
	Hit  bool
}

// EvictionRecord is one eviction decision in the eviction log: the sampled
// candidate set (the action space), the chosen victim, and its propensity.
type EvictionRecord struct {
	Time       float64
	Candidates []Candidate
	Chosen     int
	Propensity float64
}

// entry is the resident-item bookkeeping.
type entry struct {
	key        string
	size       int64
	lastAccess float64
	freq       int
	insertedAt float64
	slot       int // index into Cache.keys for O(1) sampling/removal
}

// Config parameterizes the cache.
type Config struct {
	// MaxBytes is the capacity budget (must be positive).
	MaxBytes int64
	// SampleSize is how many random candidates each eviction considers
	// (Redis maxmemory-samples; default 5).
	SampleSize int
	// LogAccesses / LogEvictions enable the harvestable logs.
	LogAccesses, LogEvictions bool
	// OnEvict, when non-nil, is called with each evicted key (used by the
	// RESP server to drop the value bytes it stores alongside).
	OnEvict func(key string)
}

// Cache is a byte-budgeted KV cache with sampled eviction. Not safe for
// concurrent use; the RESP server in package resp serializes access.
type Cache struct {
	cfg     Config
	used    int64
	entries map[string]*entry
	keys    []string // dense slice of resident keys for uniform sampling
	evictor Evictor
	r       *rand.Rand
	now     float64

	hits, misses, evictions int64
	accessLog               []AccessRecord
	evictionLog             []EvictionRecord
}

// New builds a cache. The rand source drives candidate sampling (and any
// randomized evictor should be seeded separately).
func New(cfg Config, ev Evictor, r *rand.Rand) (*Cache, error) {
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("cachesim: MaxBytes %d", cfg.MaxBytes)
	}
	if cfg.SampleSize <= 0 {
		cfg.SampleSize = 5
	}
	if ev == nil {
		return nil, fmt.Errorf("cachesim: nil evictor")
	}
	if r == nil {
		return nil, fmt.Errorf("cachesim: nil rand")
	}
	return &Cache{
		cfg:     cfg,
		entries: make(map[string]*entry),
		evictor: ev,
		r:       r,
	}, nil
}

// Advance moves the cache's virtual clock forward to t (monotone).
func (c *Cache) Advance(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Now returns the current virtual time.
func (c *Cache) Now() float64 { return c.now }

// Get looks up key, updating recency/frequency on a hit.
func (c *Cache) Get(key string) bool {
	e, ok := c.entries[key]
	if ok {
		e.lastAccess = c.now
		e.freq++
		c.hits++
	} else {
		c.misses++
	}
	if c.cfg.LogAccesses {
		var size int64
		if ok {
			size = e.size
		}
		c.accessLog = append(c.accessLog, AccessRecord{Time: c.now, Key: key, Size: size, Hit: ok})
	}
	return ok
}

// Set inserts or updates key with the given size, evicting as needed. It
// fails if a single item exceeds the whole budget.
func (c *Cache) Set(key string, size int64) error {
	if size <= 0 {
		return fmt.Errorf("cachesim: item %q size %d", key, size)
	}
	if size > c.cfg.MaxBytes {
		return fmt.Errorf("cachesim: item %q size %d exceeds budget %d", key, size, c.cfg.MaxBytes)
	}
	if e, ok := c.entries[key]; ok {
		c.used += size - e.size
		e.size = size
		e.lastAccess = c.now
		e.freq++
		for c.used > c.cfg.MaxBytes {
			if err := c.evictOne(key); err != nil {
				return err
			}
		}
		return nil
	}
	for c.used+size > c.cfg.MaxBytes {
		if err := c.evictOne(""); err != nil {
			return err
		}
	}
	e := &entry{
		key: key, size: size,
		lastAccess: c.now, freq: 1, insertedAt: c.now,
		slot: len(c.keys),
	}
	c.entries[key] = e
	c.keys = append(c.keys, key)
	c.used += size
	return nil
}

// Delete removes key, returning whether it was resident.
func (c *Cache) Delete(key string) bool {
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	c.remove(e)
	return true
}

// Flush empties the cache (logs are retained).
func (c *Cache) Flush() {
	c.entries = make(map[string]*entry)
	c.keys = c.keys[:0]
	c.used = 0
}

// remove unlinks an entry with O(1) slot swap.
func (c *Cache) remove(e *entry) {
	last := len(c.keys) - 1
	moved := c.keys[last]
	c.keys[e.slot] = moved
	c.entries[moved].slot = e.slot
	c.keys = c.keys[:last]
	delete(c.entries, e.key)
	c.used -= e.size
}

// evictOne samples candidates and asks the evictor for a victim. protect is
// a key that must not be evicted (an item being resized in place).
func (c *Cache) evictOne(protect string) error {
	if len(c.keys) == 0 {
		return fmt.Errorf("cachesim: nothing to evict but over budget")
	}
	cands := c.sampleCandidates(protect)
	if len(cands) == 0 {
		return fmt.Errorf("cachesim: no eviction candidates (all protected)")
	}
	idx := c.evictor.Choose(cands, c.now)
	if idx < 0 || idx >= len(cands) {
		return fmt.Errorf("cachesim: evictor %q chose %d of %d candidates", c.evictor.Name(), idx, len(cands))
	}
	if c.cfg.LogEvictions {
		p := 1.0
		if se, ok := c.evictor.(StochasticEvictor); ok {
			p = se.Distribution(cands, c.now)[idx]
		}
		rec := EvictionRecord{
			Time:       c.now,
			Candidates: append([]Candidate(nil), cands...),
			Chosen:     idx,
			Propensity: p,
		}
		c.evictionLog = append(c.evictionLog, rec)
	}
	victim := c.entries[cands[idx].Key]
	c.remove(victim)
	c.evictions++
	if c.cfg.OnEvict != nil {
		c.cfg.OnEvict(victim.key)
	}
	return nil
}

// sampleCandidates draws up to SampleSize distinct resident items uniformly
// at random (a partial Fisher–Yates over the dense key slice).
func (c *Cache) sampleCandidates(protect string) []Candidate {
	n := len(c.keys)
	k := c.cfg.SampleSize
	if k > n {
		k = n
	}
	cands := make([]Candidate, 0, k)
	// Partial Fisher–Yates: swap chosen keys toward the front. The slice
	// order is irrelevant to correctness, so we can leave it shuffled.
	for i := 0; i < k; i++ {
		j := i + c.r.Intn(n-i)
		c.keys[i], c.keys[j] = c.keys[j], c.keys[i]
		c.entries[c.keys[i]].slot = i
		c.entries[c.keys[j]].slot = j
		key := c.keys[i]
		if key == protect {
			continue
		}
		e := c.entries[key]
		cands = append(cands, Candidate{
			Key: e.key, Size: e.size,
			LastAccess: e.lastAccess, Frequency: e.freq, InsertedAt: e.insertedAt,
		})
	}
	return cands
}

// Contains reports residency without touching recency/frequency.
func (c *Cache) Contains(key string) bool {
	_, ok := c.entries[key]
	return ok
}

// Stats reports cumulative counters.
type Stats struct {
	Hits, Misses, Evictions int64
	UsedBytes, MaxBytes     int64
	Items                   int
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		UsedBytes: c.used, MaxBytes: c.cfg.MaxBytes, Items: len(c.entries),
	}
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// AccessLog returns the recorded accesses (nil unless enabled).
func (c *Cache) AccessLog() []AccessRecord { return c.accessLog }

// EvictionLog returns the recorded eviction decisions (nil unless enabled).
func (c *Cache) EvictionLog() []EvictionRecord { return c.evictionLog }
