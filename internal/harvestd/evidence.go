package harvestd

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/daemon"
	"repro/internal/ope"
)

// EvidenceVersion is the wire-format version of the /evidence payload
// (Evidence and the structs it nests). Bump it whenever one of their field
// sets changes (enforced by harvestlint's wirecompat rule).
const EvidenceVersion = 1

// Watermark is the fold-watermark triple a gate reads — the same three
// top-level fields /freshness renders on either tier.
type Watermark struct {
	// Seq is the folded-record sequence watermark (-1 unknown).
	Seq int64 `json:"watermark_seq"`
	// AgeSeconds is how old the last fold behind the estimates is
	// (-1: nothing folded yet).
	AgeSeconds float64 `json:"watermark_age_seconds"`
	// Behind counts records ingested but not yet folded.
	Behind int64 `json:"behind"`
}

// EvidenceStamp says how much data an Evidence payload stands on. Folded is
// the fold counter read together with the watermark, before the
// accumulators: a policy that evaluated every record has N ≥ Folded. The
// aggregator also reports how many shards the merge covers.
type EvidenceStamp struct {
	Folded      int64 `json:"folded"`
	LiveShards  int   `json:"live_shards,omitempty"`
	TotalShards int   `json:"total_shards,omitempty"`
}

// PolicyEstimate is ope.PolicyEstimate under the name the loop benchmark
// (bench/, its own module) still uses. It goes when that benchmark is next
// edited — ROADMAP item 0.
type PolicyEstimate = ope.PolicyEstimate

// PolicyEvidence is one policy's estimate and estimator-health rows,
// derived from the same merged Accum — Estimate.N == Diagnostics.N always.
type PolicyEvidence struct {
	Estimate    ope.PolicyEstimate    `json:"estimate"`
	Diagnostics ope.PolicyDiagnostics `json:"diagnostics"`
}

// Evidence is the GET /evidence?policy=a,b payload on harvestd and
// harvestagg: everything one gate step reads, from one read of the
// registry (or of the shard set). The watermark and the stamp are read
// first and the accumulators after, so the rows cover at least the records
// the watermark claims. Policies are in request order. Watermark is nil
// only on a surface that cannot vouch for its pipeline (scripted test
// servers); both daemons always fill it.
type Evidence struct {
	Version   int              `json:"version"`
	Watermark *Watermark       `json:"watermark,omitempty"`
	Stamp     EvidenceStamp    `json:"stamp"`
	Policies  []PolicyEvidence `json:"policies"`
}

// Evidence reads the named policies' rows, in argument order, stamped with
// the snapshot's fold count; unknown names the first policy the snapshot
// does not carry. The caller adds the watermark it read before the
// snapshot.
func (s *StateSnapshot) Evidence(names []string, delta float64) (ev Evidence, unknown string) {
	rows := make([]PolicyEvidence, len(names))
	for i, name := range names {
		acc, ok := s.Policies[name]
		if !ok {
			return Evidence{}, name
		}
		rows[i] = PolicyEvidence{Estimate: acc.Estimate(name, delta), Diagnostics: acc.Diagnostics(name)}
	}
	return Evidence{
		Version:  EvidenceVersion,
		Stamp:    EvidenceStamp{Folded: s.Counters.Folded},
		Policies: rows,
	}, ""
}

// Evidence assembles the /evidence payload for the named policies at
// confidence 1−delta; unknown names the first policy that is not
// registered. The watermark is read before snapshot(names): the fold
// workers store a batch into the registry before they move its source
// watermark and the fold counter, so the rows are at or ahead of both.
func (d *Daemon) Evidence(names []string, delta float64) (ev Evidence, unknown string) {
	fr := d.FreshnessNow()
	snap := d.snapshot(names)
	ev, unknown = snap.Evidence(names, delta)
	if unknown == "" {
		ev.Watermark = &Watermark{Seq: fr.WatermarkSeq, AgeSeconds: fr.WatermarkAgeSeconds, Behind: fr.Behind}
	}
	return ev, unknown
}

// ParseDelta reads the optional ?delta= override shared by the estimate
// endpoints of both tiers; def is served when the parameter is absent.
func ParseDelta(r *http.Request, def float64) (float64, error) {
	s := r.URL.Query().Get("delta")
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v <= 0 || v >= 1 {
		return 0, fmt.Errorf("bad delta %q", s)
	}
	return v, nil
}

// ServeEvidence is the GET /evidence handler body shared by harvestd and
// harvestagg: it parses ?policy=a,b[&delta=], calls read, and answers 400
// for a missing or empty policy list or a bad delta and 404 naming the
// policy read reports unknown.
func ServeEvidence(w http.ResponseWriter, r *http.Request, defDelta float64,
	read func(names []string, delta float64) (Evidence, string)) {
	delta, err := ParseDelta(r, defDelta)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	names := strings.Split(r.URL.Query().Get("policy"), ",")
	for _, name := range names {
		if name == "" {
			http.Error(w, "want ?policy=a,b (comma-separated policy names)", http.StatusBadRequest)
			return
		}
	}
	ev, unknown := read(names, delta)
	if unknown != "" {
		http.Error(w, fmt.Sprintf("unknown policy %q", unknown), http.StatusNotFound)
		return
	}
	daemon.WriteJSON(w, ev)
}

// ServeEstimates is the GET /estimates handler body shared by harvestd and
// harvestagg: every policy's estimate from one read, sorted by name, or
// with ?policy=name that policy's alone (404 when read does not carry it);
// a bad ?delta= is a 400.
func ServeEstimates(w http.ResponseWriter, r *http.Request, defDelta float64, read func() StateSnapshot) {
	delta, err := ParseDelta(r, defDelta)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := read()
	name := r.URL.Query().Get("policy")
	if name == "" {
		daemon.WriteJSON(w, snap.Estimates(delta))
		return
	}
	acc, ok := snap.Policies[name]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown policy %q", name), http.StatusNotFound)
		return
	}
	daemon.WriteJSON(w, acc.Estimate(name, delta))
}
