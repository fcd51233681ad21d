package harvestd

import (
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// FreshnessVersion is the wire-format version of FreshnessReport /
// SourceFreshness — the pipeline-watermark payload served on /freshness
// and merged by the aggregation tier. Bump it whenever either struct's
// field set changes (enforced by harvestlint's wirecompat rule).
const FreshnessVersion = 1

// SourceFreshness is one source's pipeline-watermark view: how much the
// source has ingested, how much of that the fold workers have absorbed,
// the max record sequence number seen on each side of the fold, and the
// ingest→fold lag distribution. Sequence watermarks are -1 until the
// source emits a record carrying a Seq.
type SourceFreshness struct {
	Source string `json:"source"`
	// Ingested / Folded count datapoints on their way to the fold and
	// datapoints folded into estimators. Every batch is enqueued raw, and
	// its datapoints are ingested when a worker decodes them, a moment
	// before it folds them. Behind is what is queued and not yet folded:
	// Ingested minus Folded minus the records a worker rejected (records are
	// enqueued unvalidated), plus, for each batch not decoded yet, its
	// segment header's record count, its physical lines, or Ingest's one
	// record — so a full queue shows here while Ingested stands still.
	Ingested int64 `json:"ingested"`
	Folded   int64 `json:"folded"`
	Behind   int64 `json:"behind"`
	// MaxSeqIngested / MaxSeqFolded are the high-water record sequence
	// numbers ingested and folded (-1 before any sequenced record); a record
	// the worker rejects advances MaxSeqFolded like a folded one.
	// MaxSeqIngested moves when a worker decodes the batch, not when the
	// reader enqueues it.
	MaxSeqIngested int64 `json:"max_seq_ingested"`
	MaxSeqFolded   int64 `json:"max_seq_folded"`
	// LastIngestUnixMilli / LastFoldUnixMilli are the injected clock's time
	// of the most recent enqueue (booked with Ingested) and fold (0 = never).
	LastIngestUnixMilli int64 `json:"last_ingest_unix_milli"`
	LastFoldUnixMilli   int64 `json:"last_fold_unix_milli"`
	// Lag* summarize the ingest→fold latency histogram: one sample per
	// folded batch, enqueue → folded (every record in a batch shares its
	// enqueue timestamp), a batch being one binrec segment, the lines of one
	// access-log read, or one Ingest record. The sample contains the decode,
	// which the folding worker does. LagCount therefore counts batches, not
	// records, and a quantile weighs a 400-line catch-up read like a
	// one-line follow-mode read.
	LagP50Seconds float64 `json:"lag_p50_seconds"`
	LagP99Seconds float64 `json:"lag_p99_seconds"`
	LagCount      uint64  `json:"lag_count"`
	LagSumSeconds float64 `json:"lag_sum_seconds"`
}

// FreshnessReport is the /freshness payload: the shard's pipeline
// watermarks. WatermarkSeq is the min across sources of MaxSeqFolded (the
// estimate provably reflects every valid sequenced record up to it);
// WatermarkAgeSeconds is how long ago the estimators last absorbed
// anything (-1 = never); Behind totals queued-but-unfolded records.
// The aggregation tier (internal/fleet) and rolloutd's watermark gate both
// read the top-level WatermarkAgeSeconds/Behind pair, so the fleet-level
// merge deliberately renders the same field names.
type FreshnessReport struct {
	Version             int               `json:"version"`
	ShardID             string            `json:"shard_id"`
	TimeUnixMilli       int64             `json:"time_unix_milli"`
	WatermarkSeq        int64             `json:"watermark_seq"`
	WatermarkAgeSeconds float64           `json:"watermark_age_seconds"`
	Behind              int64             `json:"behind"`
	QueueDepth          int               `json:"queue_depth"`
	QueueCapacity       int               `json:"queue_capacity"`
	Sources             []SourceFreshness `json:"sources"`
}

const helpIngestFoldLag = "enqueue-to-folded latency, one sample per folded batch, not per record (a binrec segment or the lines of one access-log read, whose decode by the folding worker it includes, or one pushed record)"

// sourceStats is the per-source watermark accumulator behind /freshness.
// Writers are enqueue (queued, before the batch is handed to the queue) and
// the fold workers (the rest); all fields are atomics, so neither path
// takes a lock.
type sourceStats struct {
	name           string
	queued         atomic.Int64 // enqueued, not decoded yet: header records, physical lines or Ingest records
	ingested       atomic.Int64
	folded         atomic.Int64
	rejected       atomic.Int64 // failed Validate in the worker: left the queue unfolded
	maxSeqIngested atomic.Int64 // -1 until a sequenced record arrives
	maxSeqFolded   atomic.Int64
	lastIngestNano atomic.Int64 // injected-clock UnixNano; 0 = never
	lastFoldNano   atomic.Int64
	lag            *obs.Histogram
}

func newSourceStats(name string, reg *obs.Registry) *sourceStats {
	st := &sourceStats{name: name}
	st.maxSeqIngested.Store(-1)
	st.maxSeqFolded.Store(-1)
	st.lag = reg.Histogram("harvestd_ingest_fold_lag_seconds", helpIngestFoldLag,
		obs.DefLatencyBuckets(), "source", name)
	return st
}

// atomicMax raises a to at least v (CAS loop; no-op when v is not larger).
func atomicMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// noteIngested records the points a worker decoded from a batch, their
// high-water Seq and the batch's enqueue time.
func (s *sourceStats) noteIngested(n int, maxSeq int64, at time.Time) {
	s.ingested.Add(int64(n))
	atomicMax(&s.maxSeqIngested, maxSeq)
	atomicMax(&s.lastIngestNano, at.UnixNano())
}

// noteFolded records a batch leaving the queue: folded points, points the
// worker rejected (they drain the queue too), and the batch's high-water
// Seq, which the fold watermark passes whether the record carrying it was
// folded or rejected.
func (s *sourceStats) noteFolded(folded, rejected int, maxSeq int64, at time.Time, lagSeconds float64) {
	s.folded.Add(int64(folded))
	s.rejected.Add(int64(rejected))
	atomicMax(&s.maxSeqFolded, maxSeq)
	atomicMax(&s.lastFoldNano, at.UnixNano())
	s.lag.Observe(lagSeconds)
}

// maxBatchSeq is the high-water Seq of a decoded batch, valid records or
// not: the fold watermark passes a record the worker rejects just as it
// passes one it folds.
func maxBatchSeq(pts []core.Datapoint) int64 {
	maxSeq := int64(-1)
	for i := range pts {
		if pts[i].Seq > maxSeq {
			maxSeq = pts[i].Seq
		}
	}
	return maxSeq
}

// sinkFor returns the ingestion sink bound to the named source's stats,
// creating the stats (and their lag histogram series) on first use.
func (d *Daemon) sinkFor(name string) *Sink {
	d.srcStatsMu.Lock()
	st, ok := d.srcStats[name]
	if !ok {
		st = newSourceStats(name, d.obsReg)
		d.srcStats[name] = st
	}
	d.srcStatsMu.Unlock()
	return &Sink{d: d, src: st}
}

// FreshnessNow assembles the current pipeline-watermark report. Sources
// render in name order, so two calls against unchanged state are
// byte-identical through the JSON encoder.
func (d *Daemon) FreshnessNow() FreshnessReport {
	now := d.cfg.Clock.Now()
	d.srcStatsMu.Lock()
	stats := make([]*sourceStats, 0, len(d.srcStats))
	for _, st := range d.srcStats {
		stats = append(stats, st)
	}
	d.srcStatsMu.Unlock()
	sort.Slice(stats, func(i, j int) bool { return stats[i].name < stats[j].name })

	rep := FreshnessReport{
		Version:             FreshnessVersion,
		ShardID:             d.shardID(),
		TimeUnixMilli:       now.UnixMilli(),
		WatermarkSeq:        -1,
		WatermarkAgeSeconds: -1,
		QueueDepth:          len(d.queue),
		QueueCapacity:       cap(d.queue),
		Sources:             make([]SourceFreshness, 0, len(stats)),
	}
	var lastFoldNano int64
	for _, st := range stats {
		snap := st.lag.Snapshot()
		sf := SourceFreshness{
			Source:         st.name,
			Ingested:       st.ingested.Load(),
			Folded:         st.folded.Load(),
			MaxSeqIngested: st.maxSeqIngested.Load(),
			MaxSeqFolded:   st.maxSeqFolded.Load(),
			LagCount:       snap.Count,
			LagSumSeconds:  snap.Sum,
		}
		sf.Behind = st.queued.Load() + sf.Ingested - sf.Folded - st.rejected.Load()
		if ns := st.lastIngestNano.Load(); ns != 0 {
			sf.LastIngestUnixMilli = ns / int64(time.Millisecond)
		}
		if ns := st.lastFoldNano.Load(); ns != 0 {
			sf.LastFoldUnixMilli = ns / int64(time.Millisecond)
			if ns > lastFoldNano {
				lastFoldNano = ns
			}
		}
		if snap.Count > 0 {
			// Quantile of an empty snapshot is NaN, which the JSON encoder
			// rejects — the zero default stands for "no samples yet".
			sf.LagP50Seconds = snap.Quantile(0.5)
			sf.LagP99Seconds = snap.Quantile(0.99)
		}
		rep.Behind += sf.Behind
		if sf.MaxSeqFolded >= 0 &&
			(rep.WatermarkSeq < 0 || sf.MaxSeqFolded < rep.WatermarkSeq) {
			rep.WatermarkSeq = sf.MaxSeqFolded
		}
		rep.Sources = append(rep.Sources, sf)
	}
	if lastFoldNano != 0 {
		rep.WatermarkAgeSeconds = now.Sub(time.Unix(0, lastFoldNano)).Seconds()
	}
	return rep
}
