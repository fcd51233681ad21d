package harvestd

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/ope"
)

// SnapshotVersion guards the shard-snapshot wire schema. The aggregation
// tier refuses snapshots from a different version rather than merging state
// it might misread.
const SnapshotVersion = 1

// SnapshotCounters mirrors the daemon's ingestion counters on the wire, so
// the aggregation tier can report fleet-wide pipeline totals (and spot a
// shard whose parse-error rate exploded) without scraping Prometheus text.
type SnapshotCounters struct {
	Lines       int64 `json:"lines"`
	ParseErrors int64 `json:"parse_errors"`
	Rejected    int64 `json:"rejected"`
	Ingested    int64 `json:"ingested"`
	Folded      int64 `json:"folded"`
}

// Add accumulates another shard's counters (the aggregator's fleet totals).
func (c *SnapshotCounters) Add(o SnapshotCounters) {
	c.Lines += o.Lines
	c.ParseErrors += o.ParseErrors
	c.Rejected += o.Rejected
	c.Ingested += o.Ingested
	c.Folded += o.Folded
}

// StateSnapshot is the wire unit of federation: one shard's complete
// estimator state — every policy's merged Accum plus the ingestion counters
// and estimator settings — as served at GET /snapshot and pulled by the
// aggregation tier. Because an Accum is a bag of order-insensitive running
// sums, merging decoded snapshots from N shards reproduces exactly the state
// a single daemon would have built over the union of their traffic.
type StateSnapshot struct {
	Version int    `json:"version"`
	ShardID string `json:"shard_id"`
	// Seq increments on every snapshot the daemon takes; a regression
	// (smaller Seq than previously observed) tells the aggregator the shard
	// restarted.
	Seq        int64                `json:"seq"`
	Clip       float64              `json:"clip"`
	Floor      float64              `json:"floor"`
	EvalPanics int64                `json:"eval_panics"`
	Counters   SnapshotCounters     `json:"counters"`
	Policies   map[string]ope.Accum `json:"policies"`
}

// StateSnapshot is snapshot(nil) numbered for the federation wire: each
// call takes the next Seq.
func (d *Daemon) StateSnapshot() StateSnapshot {
	s := d.snapshot(nil)
	s.Seq = d.snapSeq.Add(1)
	return s
}

// snapshot is the daemon's one read of its state, behind /snapshot,
// /estimates, /evidence, /diagnostics, the per-policy /metrics and the
// checkpoint: the counters, then the merged Accum of each named policy, or
// of every policy when names is nil (a name not registered is left out).
// The workers store a batch into the registry before they move the
// counters, so the accumulators cover at least what the counters say;
// two policies can still be one batch apart per worker.
func (d *Daemon) snapshot(names []string) StateSnapshot {
	s := StateSnapshot{
		Version: SnapshotVersion,
		ShardID: d.shardID(),
		Clip:    d.reg.Clip(),
		Floor:   d.reg.PropensityFloor(),
		Counters: SnapshotCounters{
			Lines:       d.ctr.lines.Load(),
			ParseErrors: d.ctr.parseErrors.Load(),
			Rejected:    d.ctr.rejected.Load(),
			Ingested:    d.ctr.ingested.Load(),
			Folded:      d.ctr.folded.Load(),
		},
		EvalPanics: d.reg.EvalPanics(),
	}
	s.Policies = d.reg.exportState(names)
	return s
}

// sortedNames returns the snapshot's policy names in order.
func (s *StateSnapshot) sortedNames() []string {
	names := make([]string, 0, len(s.Policies))
	for name := range s.Policies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Estimates reads every policy's estimate at confidence 1−delta, sorted by
// name: the /estimates rows of either tier.
func (s *StateSnapshot) Estimates(delta float64) []ope.PolicyEstimate {
	names := s.sortedNames()
	out := make([]ope.PolicyEstimate, len(names))
	for i, name := range names {
		acc := s.Policies[name]
		out[i] = acc.Estimate(name, delta)
	}
	return out
}

// Diagnostics reads every policy's estimator-health row, sorted by name:
// the /diagnostics rows of either tier.
func (s *StateSnapshot) Diagnostics() []ope.PolicyDiagnostics {
	names := s.sortedNames()
	out := make([]ope.PolicyDiagnostics, len(names))
	for i, name := range names {
		acc := s.Policies[name]
		out[i] = acc.Diagnostics(name)
	}
	return out
}

// floats lists every float field of an Accum in a fixed order, for
// finiteness validation and bit-exact comparison. Keep in sync with the
// struct: the round-trip tests count fields reflectively to catch drift.
func floats(a *ope.Accum) [16]float64 {
	return [...]float64{
		a.SumW, a.SumWSq, a.MaxW,
		a.SumWR, a.SumWRSq, a.SumW2R, a.SumW2R2,
		a.SumCW, a.SumCWR, a.SumCWRSq,
		a.MinTerm, a.MaxTerm, a.MinCTerm, a.MaxCTerm, a.MinR, a.MaxR,
	}
}

// Validate checks a snapshot's structural invariants — a supported
// version, and every policy named, with consistent counts and a finite
// accumulator — on the wire and at every checkpoint load. NaN or ±Inf
// cannot be encoded as JSON, and an aggregator must never merge poisoned
// state; the guarded importance-weight path upstream makes this
// unreachable in practice, and the check turns "impossible" into "loud" at
// the fleet and restart boundaries.
func (s *StateSnapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("harvestd: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	for name, acc := range s.Policies {
		if name == "" {
			return fmt.Errorf("harvestd: unnamed policy")
		}
		if acc.N < 0 || acc.Matches < 0 || acc.Matches > acc.N {
			return fmt.Errorf("harvestd: policy %q has inconsistent counts n=%d matches=%d",
				name, acc.N, acc.Matches)
		}
		for _, v := range floats(&acc) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("harvestd: policy %q accumulator carries non-finite state", name)
			}
		}
	}
	return nil
}

// EncodeSnapshot writes the snapshot's wire form: one JSON object with
// policies in sorted-key order (encoding/json sorts map keys), so encoding
// the same state twice yields byte-identical output. Go's float formatting
// uses the shortest decimal that parses back to the same float64, which
// makes the encode→decode round trip bit-exact — the property the
// round-trip tests pin down.
func EncodeSnapshot(w io.Writer, s *StateSnapshot) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("encoding snapshot: %w", err)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("harvestd: encoding snapshot: %w", err)
	}
	return nil
}

// DecodeSnapshot parses and validates one wire snapshot.
func DecodeSnapshot(r io.Reader) (*StateSnapshot, error) {
	var s StateSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("harvestd: decoding snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("decoding snapshot: %w", err)
	}
	return &s, nil
}
