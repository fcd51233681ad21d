package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/daemon"
	"repro/internal/harvestd"
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

// Freshness is the fleet freshness of the current View. Shards render in
// the canonical sorted-name order, so the payload is a pure function of
// the report set.
func (a *Aggregator) Freshness() FleetFreshness { return a.View().Freshness }

// add appends one shard's row, from its last watermark report (nil: none
// yet) pulled reportAge ago, and folds a live shard's row into the fleet
// watermark.
func (f *FleetFreshness) add(name string, live bool, rep *harvestd.FreshnessReport, reportAge time.Duration) {
	row := ShardFreshness{
		Name:                name,
		Live:                live,
		WatermarkSeq:        -1,
		WatermarkAgeSeconds: -1,
		ReportAgeSeconds:    -1,
	}
	if rep != nil {
		row.WatermarkSeq = rep.WatermarkSeq
		row.Behind = rep.Behind
		row.QueueDepth = rep.QueueDepth
		row.ReportAgeSeconds = reportAge.Seconds()
		if rep.WatermarkAgeSeconds >= 0 {
			row.WatermarkAgeSeconds = rep.WatermarkAgeSeconds + row.ReportAgeSeconds
		}
	}
	if live {
		f.LiveShards++
		if rep != nil {
			if row.WatermarkSeq >= 0 && (f.WatermarkSeq < 0 || row.WatermarkSeq < f.WatermarkSeq) {
				f.WatermarkSeq = row.WatermarkSeq
			}
			if row.WatermarkAgeSeconds > f.WatermarkAgeSeconds {
				f.WatermarkAgeSeconds = row.WatermarkAgeSeconds
			}
			f.Behind += row.Behind
		}
	}
	f.Shards = append(f.Shards, row)
}

// Evidence assembles the /evidence payload — the named policies' estimate
// and diagnostics rows merged over the live shards, the fleet watermark and
// a stamp — from one view of the named policies. unknown names the first
// policy no live shard carries.
func (a *Aggregator) Evidence(names []string, delta float64) (ev harvestd.Evidence, unknown string) {
	v := a.view(names)
	ev, unknown = v.StateSnapshot.Evidence(names, delta)
	if unknown == "" {
		ff := &v.Freshness
		ev.Watermark = &harvestd.Watermark{Seq: ff.WatermarkSeq, AgeSeconds: ff.WatermarkAgeSeconds, Behind: ff.Behind}
		ev.Stamp.LiveShards, ev.Stamp.TotalShards = v.LiveShards, v.TotalShards
	}
	return ev, unknown
}
