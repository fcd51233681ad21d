// Package harvestd is the drift variant of the wirecompat fixture: the
// test builds the lock from these definitions, then perturbs the locked
// StateSnapshot field set and the locked SnapshotVersion value, modelling
// a snapshot struct edit that never bumped the version. Both watched
// symbols must then fail against the lock.
package harvestd

// SnapshotVersion guards the snapshot schema.
const SnapshotVersion = 1 // want "records 2"

// SnapshotCounters mirrors the ingest counter block.
type SnapshotCounters struct {
	Lines int64 `json:"lines"`
}

// Accum mirrors the estimator accumulator.
type Accum struct {
	N    int64   `json:"n"`
	SumW float64 `json:"sum_w"`
}

// StateSnapshot mirrors the versioned shard snapshot.
type StateSnapshot struct { // want "field set differs"
	Version  int              `json:"version"`
	Counters SnapshotCounters `json:"counters"`
	Policies map[string]Accum `json:"policies"`
}

// FreshnessVersion guards the freshness-report schema (not perturbed by
// the drift test; it must stay clean while the snapshot symbols fail).
const FreshnessVersion = 1

// SourceFreshness mirrors one source's watermark row.
type SourceFreshness struct {
	Source       string `json:"source"`
	WatermarkSeq int64  `json:"watermark_seq"`
}

// FreshnessReport mirrors the versioned /freshness payload.
type FreshnessReport struct {
	Version int               `json:"version"`
	Sources []SourceFreshness `json:"sources"`
}

// EvidenceVersion guards the /evidence payload schema (not perturbed).
const EvidenceVersion = 1

// The /evidence payload in miniature: Evidence nests a Watermark, a stamp
// and per-policy rows, each row an estimate (of estimator values) and a
// diagnostics row.
type (
	Watermark struct {
		Seq int64 `json:"watermark_seq"`
	}
	EvidenceStamp struct {
		Folded int64 `json:"folded"`
	}
	EstimatorValue struct {
		Value float64 `json:"value"`
	}
	PolicyEstimate struct {
		IPS EstimatorValue `json:"ips"`
	}
	PolicyDiagnostics struct {
		ESS float64 `json:"ess"`
	}
	PolicyEvidence struct {
		Estimate    PolicyEstimate    `json:"estimate"`
		Diagnostics PolicyDiagnostics `json:"diagnostics"`
	}
	Evidence struct {
		Version   int              `json:"version"`
		Watermark *Watermark       `json:"watermark,omitempty"`
		Stamp     EvidenceStamp    `json:"stamp"`
		Policies  []PolicyEvidence `json:"policies"`
	}
)
