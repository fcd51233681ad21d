package harvestd

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/ope"
)

// Registry is the daemon's set of named candidate policies, each with
// sharded estimator state. The write path is designed for the ingestion hot
// loop: worker i is the only writer of shard i of every policy (one
// goroutine per worker index — FoldBatch relies on it), so concurrent
// workers never contend on a lock; the read path (API scrapes, checkpoints)
// briefly locks each shard and merges. Shard numShards is reserved for
// state restored from a checkpoint.
type Registry struct {
	numShards int
	clip      float64
	floor     float64 // propensity floor for diagnostics (<= 0 disables)

	mu      sync.RWMutex // guards entries/sorted (registration vs. iteration)
	entries map[string]*regEntry
	// sorted holds the entries in name order. Register replaces it with a
	// new slice and never mutates the old one, so a reader may keep using
	// the slice it grabbed under mu after releasing mu.
	sorted []*regEntry

	evalPanics atomic.Int64 // policy evaluations recovered from a panic
}

// DefaultPropensityFloor is the logged-propensity threshold below which a
// datapoint is counted as a floor hit in the estimator-health diagnostics:
// a weight of 1/0.001 = 1000 from a single sample is exactly the kind of
// tail that makes an IPS interval untrustworthy.
const DefaultPropensityFloor = 1e-3

type regEntry struct {
	name   string
	prober core.ActionProber // the policy's π(a|x), dispatch resolved at Register
	shards []*shard
}

type shard struct {
	mu  sync.Mutex
	acc ope.Accum
}

// NewRegistry creates a registry sharded for the given number of ingestion
// workers. clip > 0 caps importance weights for the clipped-IPS estimator
// (clip <= 0 leaves it identical to plain IPS).
func NewRegistry(workers int, clip float64) (*Registry, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("harvestd: registry needs >= 1 worker shard, got %d", workers)
	}
	return &Registry{
		numShards: workers,
		clip:      clip,
		floor:     DefaultPropensityFloor,
		entries:   make(map[string]*regEntry),
	}, nil
}

// NumShards returns the number of worker shards (excluding the restore shard).
func (g *Registry) NumShards() int { return g.numShards }

// Clip returns the importance-weight cap (0 = unclipped).
func (g *Registry) Clip() float64 { return g.clip }

// SetPropensityFloor overrides the diagnostics propensity floor (<= 0
// disables floor accounting). Call before ingestion starts.
func (g *Registry) SetPropensityFloor(f float64) { g.floor = f }

// PropensityFloor returns the diagnostics propensity floor.
func (g *Registry) PropensityFloor() float64 { return g.floor }

// Register adds a named candidate policy. Registering while ingestion is
// running is safe; the new policy starts estimating from the next batch.
func (g *Registry) Register(name string, pol core.Policy) error {
	if name == "" {
		return fmt.Errorf("harvestd: empty policy name")
	}
	if pol == nil {
		return fmt.Errorf("harvestd: nil policy %q", name)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.entries[name]; dup {
		return fmt.Errorf("harvestd: duplicate policy %q", name)
	}
	// One shard per worker plus the checkpoint-restore shard.
	shards := make([]*shard, g.numShards+1)
	for i := range shards {
		shards[i] = &shard{}
	}
	e := &regEntry{name: name, prober: core.ProberFor(pol), shards: shards}
	g.entries[name] = e
	sorted := append(append(make([]*regEntry, 0, len(g.sorted)+1), g.sorted...), e)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	g.sorted = sorted
	return nil
}

// sortedEntries returns the current name-sorted entries; the slice is
// immutable (see Registry.sorted).
func (g *Registry) sortedEntries() []*regEntry {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.sorted
}

// Names returns the registered policy names, sorted.
func (g *Registry) Names() []string {
	entries := g.sortedEntries()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.name
	}
	return names
}

// FoldBatch scores a batch of datapoints under every registered policy and
// accumulates into the worker's own shard — the daemon's only fold loop.
// The caller must have validated every datapoint (in particular
// Propensity > 0) and must be the only goroutine folding as this worker.
//
// Per batch it takes the registry lock once (to grab the immutable sorted
// entries); per (policy, batch) it folds the records in order into a copy
// of the shard's accumulator and stores the copy back under the shard lock,
// so a reader never waits on policy code and the floating-point summation
// order is the record-by-record one. A policy that panics on a datapoint —
// typically a context shape it cannot read, e.g. an LB policy fed
// cache-eviction data — is skipped for that datapoint and counted in
// EvalPanics; one bad pairing must not kill a continuously running daemon.
func (g *Registry) FoldBatch(worker int, pts []core.Datapoint) {
	if len(pts) == 0 {
		return
	}
	if worker < 0 || worker >= g.numShards {
		worker = 0
	}
	for _, e := range g.sortedEntries() {
		sh := e.shards[worker]
		acc := sh.acc // unlocked read: this worker is the shard's only writer
		for k := 0; k < len(pts); {
			k = g.foldRun(e.prober, &acc, pts, k)
		}
		sh.mu.Lock()
		sh.acc = acc
		sh.mu.Unlock()
	}
}

// foldRun folds pts[from:] into acc under one recover frame and returns
// len(pts) — or, when the policy panics on record k, counts the panic and
// returns k+1 so the caller resumes past exactly that record.
func (g *Registry) foldRun(pol core.ActionProber, acc *ope.Accum, pts []core.Datapoint, from int) (next int) {
	defer func() {
		if r := recover(); r != nil {
			g.evalPanics.Add(1)
			next++
		}
	}()
	for next = from; next < len(pts); next++ {
		d := &pts[next]
		acc.Fold(pol.ActionProb(&d.Context, d.Action), d.Propensity, d.Reward, g.clip, g.floor)
	}
	return next
}

// Fold is FoldBatch over the single datapoint d, viewed in place as a
// one-element batch (a copy would escape to the heap on every call).
func (g *Registry) Fold(worker int, d *core.Datapoint) {
	g.FoldBatch(worker, unsafe.Slice(d, 1))
}

// EvalPanics reports how many policy evaluations were skipped because the
// policy panicked on a datapoint.
func (g *Registry) EvalPanics() int64 { return g.evalPanics.Load() }

// merged returns the cross-shard aggregate for one entry.
func (e *regEntry) merged() ope.Accum {
	var total ope.Accum
	for _, sh := range e.shards {
		sh.mu.Lock()
		acc := sh.acc
		sh.mu.Unlock()
		total.Merge(&acc)
	}
	return total
}

// Estimate reports one policy's current estimate at confidence 1−delta.
func (g *Registry) Estimate(name string, delta float64) (ope.PolicyEstimate, bool) {
	g.mu.RLock()
	e, ok := g.entries[name]
	g.mu.RUnlock()
	if !ok {
		return ope.PolicyEstimate{}, false
	}
	acc := e.merged()
	return acc.Estimate(name, delta), true
}

// Estimates reports every policy's current estimate, sorted by name.
func (g *Registry) Estimates(delta float64) []ope.PolicyEstimate {
	entries := g.sortedEntries()
	out := make([]ope.PolicyEstimate, len(entries))
	for i, e := range entries {
		acc := e.merged()
		out[i] = acc.Estimate(e.name, delta)
	}
	return out
}

// TotalN returns the datapoint count folded into the first policy (every
// policy sees the same stream, so any entry serves); 0 with no policies.
func (g *Registry) TotalN() int64 {
	entries := g.sortedEntries()
	if len(entries) == 0 {
		return 0
	}
	acc := entries[0].merged()
	return acc.N
}

// exportState returns the merged accumulator of each named policy, or of
// every policy when names is nil; a name not registered is left out.
func (g *Registry) exportState(names []string) map[string]ope.Accum {
	g.mu.RLock()
	entries := g.sorted
	if names != nil {
		entries = make([]*regEntry, 0, len(names))
		for _, name := range names {
			if e, ok := g.entries[name]; ok {
				entries = append(entries, e)
			}
		}
	}
	g.mu.RUnlock()
	out := make(map[string]ope.Accum, len(entries))
	for _, e := range entries {
		out[e.name] = e.merged()
	}
	return out
}

// restoreState loads checkpointed accumulators into each policy's reserved
// restore shard, replacing whatever a previous restore put there. Policies
// in the snapshot but not registered are ignored (a registry may shrink
// across restarts); registered policies missing from the snapshot resume
// from zero. It returns the number of policies restored.
func (g *Registry) restoreState(snap map[string]ope.Accum) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	restored := 0
	for name, acc := range snap {
		e, ok := g.entries[name]
		if !ok {
			continue
		}
		sh := e.shards[g.numShards]
		sh.mu.Lock()
		sh.acc = acc
		sh.mu.Unlock()
		restored++
	}
	return restored
}
