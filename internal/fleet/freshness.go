package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/daemon"
	"repro/internal/harvestd"
	"repro/internal/ope"
)

// ShardFreshness is one shard's row in the fleet freshness view: the
// shard's own watermark report aged by how long ago the aggregator pulled
// it. Sequence watermarks are -1 when unknown.
type ShardFreshness struct {
	Name string `json:"name"`
	// Live mirrors the merged-estimates membership: the shard's snapshot is
	// inside the staleness window.
	Live         bool  `json:"live"`
	WatermarkSeq int64 `json:"watermark_seq"`
	// WatermarkAgeSeconds is the shard-reported estimator age plus the age
	// of the report itself — the aggregator's honest view of how old the
	// shard's last fold is right now (-1 unknown).
	WatermarkAgeSeconds float64 `json:"watermark_age_seconds"`
	Behind              int64   `json:"behind"`
	QueueDepth          int     `json:"queue_depth"`
	// ReportAgeSeconds is the time since the freshness report was pulled
	// (-1: the shard never delivered one).
	ReportAgeSeconds float64 `json:"report_age_seconds"`
}

// FleetFreshness is the aggregator's /freshness payload: the per-shard
// watermark rows merged into the fleet's pipeline freshness. WatermarkSeq
// is the min across live shards (the fleet-wide estimate provably reflects
// every shard's records up to it), WatermarkAgeSeconds the max (the
// worst-case estimator age rolloutd gates on), Behind the total backlog.
// The version tracks harvestd.FreshnessVersion: the fleet view is a merge
// of shard reports, so its schema moves with theirs. The top-level
// watermark_age_seconds/behind pair deliberately matches harvestd's
// FreshnessReport, so a consumer can gate on either tier's payload.
type FleetFreshness struct {
	Version             int              `json:"version"`
	TimeUnixMilli       int64            `json:"time_unix_milli"`
	WatermarkSeq        int64            `json:"watermark_seq"`
	WatermarkAgeSeconds float64          `json:"watermark_age_seconds"`
	Behind              int64            `json:"behind"`
	LiveShards          int              `json:"live_shards"`
	TotalShards         int              `json:"total_shards"`
	Shards              []ShardFreshness `json:"shards"`
}

// fetchFreshness performs one GET {base}/freshness. A 404 reports (nil,
// nil): the shard predates the endpoint, and freshness merging is strictly
// additive over the snapshot pull.
func fetchFreshness(ctx context.Context, client *http.Client, base string) (*harvestd.FreshnessReport, error) {
	var rep harvestd.FreshnessReport
	err := daemon.Get(ctx, client, base+"/freshness", func(body io.Reader) error {
		return json.NewDecoder(body).Decode(&rep)
	})
	switch {
	case daemon.StatusCode(err) == http.StatusNotFound:
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("fleet: freshness: %w", err)
	case rep.Version != harvestd.FreshnessVersion:
		return nil, fmt.Errorf("fleet: freshness version %d, want %d", rep.Version, harvestd.FreshnessVersion)
	}
	return &rep, nil
}

// Freshness merges the current per-shard watermark reports into the fleet
// view. Shards render in the canonical sorted-name order, so the payload
// is a pure function of the report set.
func (a *Aggregator) Freshness() FleetFreshness { return a.freshness(nil) }

// freshness is Freshness with a hook: visit (when non-nil) sees each live
// shard's snapshot, read under the same lock as the shard's report — the
// pair one pull installed, report fetched first — in the canonical merge
// order. /evidence merges its policies there, so its rows and its
// watermark are one cut of the shard set.
func (a *Aggregator) freshness(visit func(*harvestd.StateSnapshot)) FleetFreshness {
	now := a.cfg.Clock.Now()
	out := FleetFreshness{
		Version:             harvestd.FreshnessVersion,
		TimeUnixMilli:       now.UnixMilli(),
		WatermarkSeq:        -1,
		WatermarkAgeSeconds: -1,
		TotalShards:         len(a.shards),
		Shards:              make([]ShardFreshness, 0, len(a.shards)),
	}
	for _, st := range a.shards {
		st.mu.Lock()
		rep := st.fresh
		freshAt := st.freshAt
		lastSuccess := st.lastSuccess
		snap := st.snap
		st.mu.Unlock()
		row := ShardFreshness{
			Name:                st.shard.Name,
			WatermarkSeq:        -1,
			WatermarkAgeSeconds: -1,
			ReportAgeSeconds:    -1,
		}
		row.Live = a.live(now, snap, lastSuccess)
		if rep != nil {
			row.WatermarkSeq = rep.WatermarkSeq
			row.Behind = rep.Behind
			row.QueueDepth = rep.QueueDepth
			row.ReportAgeSeconds = now.Sub(freshAt).Seconds()
			if rep.WatermarkAgeSeconds >= 0 {
				row.WatermarkAgeSeconds = rep.WatermarkAgeSeconds + row.ReportAgeSeconds
			}
		}
		if row.Live {
			out.LiveShards++
			if rep != nil {
				if row.WatermarkSeq >= 0 &&
					(out.WatermarkSeq < 0 || row.WatermarkSeq < out.WatermarkSeq) {
					out.WatermarkSeq = row.WatermarkSeq
				}
				if row.WatermarkAgeSeconds > out.WatermarkAgeSeconds {
					out.WatermarkAgeSeconds = row.WatermarkAgeSeconds
				}
				out.Behind += row.Behind
			}
			if visit != nil {
				visit(snap)
			}
		}
		out.Shards = append(out.Shards, row)
	}
	return out
}

// Evidence assembles the /evidence payload — the named policies' estimate
// and diagnostics rows merged over the live shards, the fleet watermark and
// a stamp — from one walk of the shard set. unknown names the first policy
// no live shard carries.
func (a *Aggregator) Evidence(names []string, delta float64) (ev harvestd.Evidence, unknown string) {
	accs := make([]ope.Accum, len(names))
	found := make([]bool, len(names))
	var folded int64
	ff := a.freshness(func(snap *harvestd.StateSnapshot) {
		folded += snap.Counters.Folded
		for i, name := range names {
			if acc, ok := snap.Policies[name]; ok {
				accs[i].Merge(&acc)
				found[i] = true
			}
		}
	})
	rows := make([]harvestd.PolicyEvidence, len(names))
	for i, name := range names {
		if !found[i] {
			return harvestd.Evidence{}, name
		}
		rows[i] = harvestd.EvidenceOf(&accs[i], name, delta)
	}
	return harvestd.Evidence{
		Version:   harvestd.EvidenceVersion,
		Watermark: &harvestd.Watermark{Seq: ff.WatermarkSeq, AgeSeconds: ff.WatermarkAgeSeconds, Behind: ff.Behind},
		Stamp:     harvestd.EvidenceStamp{Folded: folded, LiveShards: ff.LiveShards, TotalShards: ff.TotalShards},
		Policies:  rows,
	}, ""
}
