// Package harvestd is the continuous harvesting daemon: the paper's
// footnote that "off-policy evaluation may incrementally update; it just
// does not intervene in a live (online) system" turned into a long-running
// service. It tails the exploration logs a system already writes — netlb
// access logs, or the binrec records recconv packs from them (a JSONL
// dataset reaches it that way too) — through concurrent ingestion workers
// feeding a bounded queue, maintains a registry of candidate policies with
// sharded per-policy incremental estimators (IPS, clipped IPS, SNIPS, with
// normal and empirical-Bernstein intervals), serves live estimates over a
// small stdlib-only HTTP API, and checkpoints estimator state atomically so
// a restarted daemon reports the accumulators and counters it had. A
// push-fed daemon (POST /ingest, Ingest) thereby resumes exactly where it
// left off; a file source does not yet — the checkpoint holds no source
// position, openSource reopens at byte 0, and the log is folded again on
// top of the restored state (ROADMAP item 1).
//
// Data flow:
//
//	sources ──send──▶ bounded queue ──▶ workers ──decode, fold──▶ policy shards
//	                                                                  │merge
//	snapshot(names): counters, then each named policy's Accum ◀───────┘
//	  ├──▶ HTTP /snapshot /estimates /evidence /diagnostics /metrics
//	  └──▶ checkpoint (timer + shutdown): {version 2, saved_at, snapshot}
//
// The queue carries batches and the fold keeps them whole, and every batch
// travels raw — decode where you fold: a binrec source reads, frames and
// CRC-checks one segment, an access-log source (or POST /ingest) takes the
// complete lines of one read, and either queues those bytes as they are;
// the worker that dequeues them parses them into its own scratch batch (one
// harvester.NginxBatch and one binrec.Batch per worker, alive as long as it
// is), so parsing runs on as many cores as folding and a source goroutine
// only reads. Ingest, the in-process feed, queues its record as a raw batch
// of one whose decode is the identity. The worker then validates the batch
// and hands each run of valid records to Registry.FoldBatch, the only fold
// loop. Per batch it pays one registry RLock and one round of counter and
// watermark bumps; per (policy, batch) one recover frame and one shard-lock
// acquisition, folding the records in order into a copy of its own shard's
// accumulator and storing the copy back — so the summation order is the
// record-by-record one. That unlocked read-modify-write relies on worker i
// being the only writer of shard i; readers take the shard lock and never
// wait on policy code. A reader can therefore see policies up to one batch
// apart (per worker), and counters up to one batch behind the registry.
//
// A source goroutine only reads, but it hands off: a worker's last act on a
// raw batch puts its buffer back on the source's free list, waking the
// reader parked there, and with a worker per P it then yields its core to
// it, so the next batch is queued while the other workers fold, not once
// every worker has run dry.
package harvestd

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/harvester"
	"repro/internal/harvester/binrec"
	"repro/internal/obs"
	"repro/internal/ope"
)

// Config tunes the daemon. The zero value is usable: defaults fill in.
type Config struct {
	// Workers is the number of concurrent ingestion workers (and estimator
	// shards). Default: GOMAXPROCS.
	Workers int
	// QueueSize bounds the ingestion queue, measured in batches (a binrec
	// segment, the lines of one access-log read, or one Ingest record).
	// Backpressure, default 4096.
	QueueSize int
	// Clip caps importance weights for the clipped-IPS estimator. Default
	// 10; <= 0 disables clipping.
	Clip float64
	// Delta is the default interval failure probability. Default 0.05.
	Delta float64
	// NumTypes > 1 harvests typed routing contexts (netlb's type= field)
	// from access logs, on every path one arrives by: NginxSource and
	// POST /ingest?format=nginx.
	NumTypes int
	// Addr is the HTTP listen address. Empty disables the API (tests can
	// still drive the daemon in-process); "127.0.0.1:0" picks a free port.
	Addr string
	// CheckpointPath enables checkpointing to this file; empty disables.
	CheckpointPath string
	// CheckpointInterval is the timer between checkpoints. Default 30s.
	CheckpointInterval time.Duration
	// PropensityFloor overrides the registry's diagnostics propensity floor
	// (0 keeps the registry default; negative disables floor accounting).
	PropensityFloor float64
	// ShardID names this daemon in fleet snapshots (GET /snapshot). Empty
	// falls back to the listen address, so a fleet of flag-identical shards
	// still reports distinct identities.
	ShardID string
	// Clock supplies timestamps for uptime, rates, and trace spans. Default
	// wall clock; tests inject obs.FixedClock for byte-stable /metrics.
	Clock obs.Clock
	// Tracer receives structured spans for the ingest→parse→fold→estimate
	// pipeline; nil disables tracing.
	Tracer *obs.Tracer
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 4096
	}
	if c.Delta <= 0 || c.Delta >= 1 {
		c.Delta = 0.05
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = obs.WallClock()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// counters are the daemon's atomic vital signs, exposed via /metrics.
type counters struct {
	lines       atomic.Int64 // raw input lines/records seen
	parseErrors atomic.Int64 // unparseable lines
	rejected    atomic.Int64 // parsed but unusable (non-2xx, no propensity, ...)
	ingested    atomic.Int64 // datapoints on their way to the fold: decoded by a worker
	folded      atomic.Int64 // datapoints folded into estimators
	checkpoints atomic.Int64 // successful checkpoint writes
}

// ingestBatch is the worker queue's unit: a batch of datapoints in wire
// form (raw), plus an optional release hook. Batching is what lets the
// ingest paths hand a whole segment or read to a worker in one channel
// operation instead of one send per record — at millions of records/sec the
// per-send synchronization would otherwise dominate. free (when non-nil) is
// the worker's last act on the batch, after the fold and every counter: it
// returns pooled buffers to the producing source, which must not touch the
// raw bytes until then. home is where the worker leaves what the bytes held,
// for the reader to collect after free, and queued what the batch counts
// for in behind until a worker has counted it: the segment header's record
// count, the physical lines of the read, or Ingest's one record. src and at
// feed the /freshness watermarks: which source enqueued the batch, and when.
type ingestBatch struct {
	raw    rawBatch
	home   *tally
	queued int64
	free   func()
	src    *sourceStats
	at     time.Time
}

// rawBatch is a batch in wire form — the complete lines of one access-log
// read, one CRC-checked binrec segment, or one record handed to Ingest.
// decode parses it into the calling worker's scratch and returns the
// points, valid until that worker's next decode or the batch's free (they
// may view its bytes); what else it saw goes into t.
type rawBatch interface {
	decode(s *scratch, t *tally) []core.Datapoint
}

// scratch is one worker's decode space: a batch per raw format, reused for
// every batch the worker dequeues.
type scratch struct {
	text harvester.NginxBatch
	bin  binrec.Batch
}

// tally is what one raw batch turned out to hold, or a pass's sum of them.
// err is a verdict that ends the pass: the first malformed line of a Strict
// access log, or a segment that passed its CRC and failed to decode.
type tally struct {
	lines, ingested, rejected, parseErrors int64
	err                                    error
}

// Daemon is one running harvestd instance.
type Daemon struct {
	cfg     Config
	reg     *Registry
	queue   chan ingestBatch
	ctr     counters
	snapSeq atomic.Int64 // /snapshot sequence, for shard-restart detection
	start   time.Time
	obsReg  *obs.Registry
	root    *obs.Span // pipeline root span (nil without a tracer)

	sources []Source
	ckpt    daemon.Checkpointer

	srcStatsMu sync.Mutex // guards the srcStats map (not the stats themselves)
	srcStats   map[string]*sourceStats

	stateMu  sync.RWMutex // guards running/draining transitions vs. Ingest
	running  bool
	draining bool

	srcCtx    context.Context
	srcCancel context.CancelFunc
	srcWG     sync.WaitGroup
	workerWG  sync.WaitGroup

	errMu   sync.Mutex
	srcErrs []error

	api *daemon.Server
}

// New builds a daemon over a registry. The registry must have at least as
// many shards as the daemon has workers.
func New(cfg Config, reg *Registry) (*Daemon, error) {
	if reg == nil {
		return nil, fmt.Errorf("harvestd: nil registry")
	}
	cfg.fillDefaults()
	if reg.NumShards() < cfg.Workers {
		return nil, fmt.Errorf("harvestd: registry has %d shards for %d workers",
			reg.NumShards(), cfg.Workers)
	}
	if cfg.PropensityFloor != 0 {
		floor := cfg.PropensityFloor
		if floor < 0 {
			floor = 0
		}
		reg.SetPropensityFloor(floor)
	}
	d := &Daemon{
		cfg:      cfg,
		reg:      reg,
		queue:    make(chan ingestBatch, cfg.QueueSize),
		srcStats: make(map[string]*sourceStats),
	}
	d.ckpt = daemon.Checkpointer{
		Path: cfg.CheckpointPath, Interval: cfg.CheckpointInterval,
		Save: d.Checkpoint, Name: "harvestd", Logf: cfg.Logf,
	}
	d.initMetrics()
	return d, nil
}

// Registry returns the daemon's policy registry.
func (d *Daemon) Registry() *Registry { return d.reg }

// AddSource wires a source; call before Start.
func (d *Daemon) AddSource(s Source) {
	d.sources = append(d.sources, s)
}

// Start resumes from the checkpoint (when one exists), launches the
// ingestion workers, sources, checkpoint timer, and HTTP API, then returns.
// The daemon runs until Shutdown.
func (d *Daemon) Start(ctx context.Context) error {
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	if d.running {
		return fmt.Errorf("harvestd: already started")
	}

	if err := d.ckpt.Resume(d.loadCheckpoint); err != nil {
		return fmt.Errorf("harvestd: %w", err)
	}

	// Listen before spawning anything so a bad address fails cleanly.
	api, err := daemon.Listen(d.cfg.Addr)
	if err != nil {
		return fmt.Errorf("harvestd: %w", err)
	}
	d.api = api

	d.start = d.cfg.Clock.Now()
	d.srcCtx, d.srcCancel = context.WithCancel(ctx)
	d.root = d.cfg.Tracer.Start("harvestd/run", nil,
		map[string]any{"workers": d.cfg.Workers, "sources": len(d.sources)})

	for i := 0; i < d.cfg.Workers; i++ {
		d.workerWG.Add(1)
		go d.worker(i)
	}

	for _, s := range d.sources {
		d.srcWG.Add(1)
		sink := d.sinkFor(s.Name())
		go func(s Source, sink *Sink) {
			defer d.srcWG.Done()
			sp := d.cfg.Tracer.Start("source/"+s.Name(), d.root, nil)
			defer sp.End()
			if err := s.Run(d.srcCtx, sink); err != nil {
				sp.SetAttr("error", err.Error())
				d.cfg.Logf("harvestd: source %s failed: %v", s.Name(), err)
				d.errMu.Lock()
				d.srcErrs = append(d.srcErrs, err)
				d.errMu.Unlock()
			}
		}(s, sink)
	}

	d.ckpt.StartTimer(d.srcCtx, &d.srcWG)

	if d.api != nil {
		d.api.Serve(d.handler())
		d.cfg.Logf("harvestd: serving on %s", d.api.URL())
	}

	d.running = true
	return nil
}

// Addr returns the API's host:port (empty when the API is disabled or the
// daemon has not started).
func (d *Daemon) Addr() string {
	d.stateMu.RLock()
	defer d.stateMu.RUnlock()
	return d.api.Addr()
}

// URL returns the API's base URL (after Start).
func (d *Daemon) URL() string { return "http://" + d.Addr() }

// shardID names this daemon on the federation wire: Config.ShardID, else the
// listen address, else "harvestd".
func (d *Daemon) shardID() string {
	if d.cfg.ShardID != "" {
		return d.cfg.ShardID
	}
	if addr := d.Addr(); addr != "" {
		return addr
	}
	return "harvestd"
}

// worker drains the queue, folding each batch into its own shard of every
// registered policy: it decodes the batch into its own scratch and books
// what the bytes held, with the enqueue's timestamp; then it validates the
// batch, hands each maximal run of valid records to Registry.FoldBatch, and
// bumps the counters and the source's watermark once per batch (so they may
// trail the registry by one batch). One span covers the worker's whole life
// (fold stage of the pipeline); per-datapoint spans would dwarf the work
// traced.
func (d *Daemon) worker(id int) {
	defer d.workerWG.Done()
	sp := d.cfg.Tracer.Start("fold/worker", d.root, map[string]any{"id": id})
	var folded int64
	defer func() {
		sp.SetAttr("folded", folded)
		sp.End()
	}()
	var sc scratch
	yield := d.cfg.Workers >= runtime.GOMAXPROCS(0)
	for bt := range d.queue {
		t := bt.home
		pts := bt.raw.decode(&sc, t)
		t.ingested = int64(len(pts))
		maxSeq := maxBatchSeq(pts)
		d.ctr.lines.Add(t.lines)
		d.ctr.rejected.Add(t.rejected)
		d.ctr.parseErrors.Add(t.parseErrors)
		d.ctr.ingested.Add(t.ingested)
		if bt.src != nil {
			if len(pts) > 0 {
				bt.src.noteIngested(len(pts), maxSeq, bt.at)
			}
			bt.src.queued.Add(-bt.queued)
		}
		nFolded, start := 0, 0 // start: first record of the current valid run
		for i := range pts {
			if pts[i].Validate() != nil {
				d.reg.FoldBatch(id, pts[start:i])
				nFolded += i - start
				start = i + 1
			}
		}
		d.reg.FoldBatch(id, pts[start:])
		nFolded += len(pts) - start
		nRejected := len(pts) - nFolded
		folded += int64(nFolded)
		// A read that held no record (blank or rejected lines only) leaves no
		// mark on the watermarks above or below, as when it was never enqueued.
		if bt.src != nil && len(pts) > 0 {
			now := d.cfg.Clock.Now()
			bt.src.noteFolded(nFolded, nRejected, maxSeq, now, now.Sub(bt.at).Seconds())
		}
		// The daemon counters move last: whoever sees them cover a batch
		// also sees its registry state and its source watermarks.
		d.ctr.folded.Add(int64(nFolded))
		if nRejected > 0 {
			d.ctr.rejected.Add(int64(nRejected))
			t.rejected += int64(nRejected)
		}
		// And the batch goes home after them: a reader that has collected a
		// batch's tally also sees it folded and counted. A reader it wakes
		// waits in this P's runnext until this worker blocks, on an emptied
		// queue by then. With a worker per P no P is idle to steal it, so
		// yield this one; with fewer, that would only move this worker.
		if bt.free != nil {
			bt.free()
			if yield {
				runtime.Gosched()
			}
		}
	}
}

// enqueue is the single entry to the worker queue: it stamps the batch with
// the injected clock, books it with its source as queued, until a worker has
// counted it, and blocks for backpressure. On ctx cancellation the batch is
// released unsent.
func (d *Daemon) enqueue(ctx context.Context, bt ingestBatch) error {
	bt.at = d.cfg.Clock.Now()
	if bt.src != nil {
		bt.src.queued.Add(bt.queued) // before the send: the worker takes it off
	}
	select {
	case d.queue <- bt:
		return nil
	case <-ctx.Done():
		if bt.src != nil {
			bt.src.queued.Add(-bt.queued)
		}
		if bt.free != nil {
			bt.free()
		}
		return ctx.Err()
	}
}

// pushSourceName labels datapoints arriving outside a configured Source —
// the /ingest endpoint and in-process Ingest calls — in /freshness and the
// lag histogram.
const pushSourceName = "push"

// Ingest offers one datapoint directly to the pipeline: the in-process feed
// through which a test drives a live daemon. The record is queued as a raw
// batch of one and booked like any other: a line, then ingested and folded,
// or rejected. It blocks for backpressure and fails once shutdown has begun.
func (d *Daemon) Ingest(dp core.Datapoint) error {
	b := &decoded{pts: []core.Datapoint{dp}}
	return d.push(ingestBatch{raw: b, home: &b.home, queued: 1})
}

// decoded is a batch handed over already decoded, Ingest's record, with the
// tally nobody collects.
type decoded struct {
	pts  []core.Datapoint
	home tally
}

// decode implements rawBatch: a record is a line, and its own point.
func (b *decoded) decode(_ *scratch, t *tally) []core.Datapoint {
	t.lines = int64(len(b.pts))
	return b.pts
}

// push queues a batch from outside a configured Source — a read of POST
// /ingest, or Ingest's record — with Sink.send's ownership rule: the batch
// belongs to the daemon until its free runs.
func (d *Daemon) push(bt ingestBatch) error {
	d.stateMu.RLock()
	defer d.stateMu.RUnlock()
	if !d.running || d.draining {
		if bt.free != nil {
			bt.free()
		}
		return errRefused
	}
	if err := d.sinkFor(pushSourceName).send(d.srcCtx, bt); err != nil {
		return fmt.Errorf("%w: shutting down", errRefused)
	}
	return nil
}

// errRefused marks a push the daemon turned away; POST /ingest answers 503.
var errRefused = errors.New("harvestd: not accepting data")

// SourceErrors returns errors from sources that failed so far.
func (d *Daemon) SourceErrors() []error {
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return append([]error(nil), d.srcErrs...)
}

// Estimates reports every policy's current estimate at the daemon's
// default confidence.
func (d *Daemon) Estimates() []ope.PolicyEstimate {
	return d.reg.Estimates(d.cfg.Delta)
}

// Shutdown drains and stops the daemon: sources stop first, the API stops
// accepting writes, in-flight queue items are folded, a final checkpoint is
// written, and the HTTP listener closes. It is the SIGTERM path — after it
// returns, estimator state is durably on disk (when checkpointing is on).
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.stateMu.Lock()
	if !d.running {
		d.stateMu.Unlock()
		return nil
	}
	d.draining = true
	d.stateMu.Unlock()

	// 1. Stop the producers: cancel sources and wait them out; stop the
	// HTTP server so no /ingest handler is mid-Emit (readers also stop —
	// estimates are frozen from here, which keeps the final checkpoint
	// authoritative).
	d.srcCancel()
	d.srcWG.Wait()
	srvErr := d.api.Shutdown(ctx)

	// 2. Drain: close the queue and let the workers fold what's in flight.
	close(d.queue)
	d.workerWG.Wait()

	// 3. Persist the drained state.
	ckptErr := d.ckpt.Final()

	d.stateMu.Lock()
	d.running = false
	d.stateMu.Unlock()
	d.root.End()

	if ckptErr != nil {
		return fmt.Errorf("harvestd: %w", ckptErr)
	}
	return srvErr
}
