package harvestd

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

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

// StateSnapshot captures the daemon's current estimator state for the
// federation wire. Callable at any time while the daemon runs; the counters
// and per-policy accumulators are each internally consistent (per-shard
// locks), though a concurrently folding datapoint may land between two
// policies' reads — harmless, since every snapshot is superseded by the
// next pull.
func (d *Daemon) StateSnapshot() StateSnapshot {
	return StateSnapshot{
		Version: SnapshotVersion,
		ShardID: d.shardID(),
		Seq:     d.snapSeq.Add(1),
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
		Policies:   d.reg.exportState(),
	}
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

// accumFinite rejects accumulators carrying NaN or ±Inf: JSON cannot encode
// them, and an aggregator must never merge poisoned state. The guarded
// importance-weight path upstream makes this unreachable in practice; the
// check turns "impossible" into "loud" at the fleet boundary.
func accumFinite(name string, a *ope.Accum) error {
	for _, v := range floats(a) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("harvestd: policy %q accumulator carries non-finite state", name)
		}
	}
	return nil
}

// Validate checks a snapshot's structural invariants: supported version and
// finite, non-negative accumulator state.
func (s *StateSnapshot) Validate() error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("harvestd: snapshot version %d, want %d", s.Version, SnapshotVersion)
	}
	for name, acc := range s.Policies {
		if name == "" {
			return fmt.Errorf("harvestd: snapshot carries an unnamed policy")
		}
		if acc.N < 0 || acc.Matches < 0 || acc.Matches > acc.N {
			return fmt.Errorf("harvestd: policy %q has inconsistent counts n=%d matches=%d",
				name, acc.N, acc.Matches)
		}
		if err := accumFinite(name, &acc); err != nil {
			return err
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
