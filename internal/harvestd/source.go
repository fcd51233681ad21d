package harvestd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/harvester"
	"repro/internal/harvester/binrec"
)

// A Source feeds exploration datapoints into the daemon's ingestion
// pipeline. Run reads until the input is exhausted (or, when following a
// growing file, until ctx is cancelled), reporting lines, parse failures,
// and rejections through the sink. Run returning a non-nil error marks the
// source failed; the daemon keeps serving the other sources.
type Source interface {
	// Name identifies the source in metrics and logs.
	Name() string
	// Run streams the source into the sink.
	Run(ctx context.Context, sink *Sink) error
}

// Sink is the ingestion funnel handed to sources: it counts the stream's
// vital signs and offers datapoints to the worker queue with backpressure.
// Each sink is bound to one source's freshness stats (see sinkFor), so the
// /freshness watermarks attribute every batch to the source that fed it.
type Sink struct {
	d   *Daemon
	src *sourceStats
}

// Line records one raw input line (or record) seen.
func (s *Sink) Line() { s.d.ctr.lines.Add(1) }

// Lines records n raw input lines (or records) seen at once — the batch
// counterpart of Line for sources that ingest whole segments.
func (s *Sink) Lines(n int) { s.d.ctr.lines.Add(int64(n)) }

// ParseError records a line that could not be parsed.
func (s *Sink) ParseError() { s.d.ctr.parseErrors.Add(1) }

// Rejected records a well-formed line that carried no usable datapoint
// (failed request, missing propensity, out-of-range type, ...).
func (s *Sink) Rejected() { s.d.ctr.rejected.Add(1) }

// Harvested records n datapoints reconstructed from derived records — the
// cache source's look-ahead join produces one datapoint per eviction, which
// is not the same thing as an input line; keeping the counters separate is
// what keeps harvestd_lines_total meaning "raw input lines seen".
func (s *Sink) Harvested(n int) { s.d.ctr.harvested.Add(int64(n)) }

// Emit offers one datapoint to the bounded worker queue, blocking for
// backpressure; it fails only when ctx is cancelled first.
func (s *Sink) Emit(ctx context.Context, d core.Datapoint) error {
	return s.d.enqueue(ctx, []core.Datapoint{d}, nil, s.src)
}

// EmitBatch offers a whole slice of datapoints to the worker queue in one
// channel operation — the hot path of the binary and access-log sources.
// Ownership of pts transfers to the daemon until free runs (after the batch
// is folded); sources recycling decode buffers pass a free that returns the
// batch to their pool, and must not touch pts before it fires. free may be
// nil.
func (s *Sink) EmitBatch(ctx context.Context, pts []core.Datapoint, free func()) error {
	if len(pts) == 0 {
		if free != nil {
			free()
		}
		return nil
	}
	return s.d.enqueue(ctx, pts, free, s.src)
}

// tailReader turns a file into a follow-forever reader (tail -f): on EOF it
// polls for appended data until ctx is cancelled, then reports io.EOF so
// downstream scanners terminate cleanly.
type tailReader struct {
	ctx   context.Context
	r     io.Reader
	poll  time.Duration
	timer *time.Timer // reused across polls; a per-poll time.After leaks a timer allocation every interval
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.r.Read(p)
		if n > 0 {
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		if t.timer == nil {
			t.timer = time.NewTimer(t.poll)
		} else {
			t.timer.Reset(t.poll)
		}
		select {
		case <-t.ctx.Done():
			if !t.timer.Stop() {
				<-t.timer.C
			}
			return 0, io.EOF
		case <-t.timer.C:
		}
	}
}

// openSource resolves a path-or-reader pair: an explicit reader wins (for
// tests and in-process wiring); otherwise the path is opened.
func openSource(path string, r io.Reader) (io.Reader, func() error, error) {
	if r != nil {
		return r, func() error { return nil }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// NginxSource tails a netlb/Nginx-style access log and harvests a
// ⟨x, a, r, p⟩ datapoint per successful request, exactly as
// harvester.NginxToTypedDataset does in batch: context from the logged
// per-upstream connection counts, action = the upstream, reward = request
// time, propensity from the log. The log is what a live system already
// writes, so this is the deployed input and a fast path: see ingestNginx.
type NginxSource struct {
	// Path is the log file; R overrides it with an in-process reader.
	Path string
	R    io.Reader
	// Follow keeps reading as the file grows (tail -f) until shutdown.
	Follow bool
	// NumTypes > 1 harvests typed routing contexts (netlb's type= field).
	NumTypes int
	// Strict aborts on the first malformed line instead of counting it —
	// the right mode for batch backfills where silent loss would bias the
	// estimate; live tails default to tolerant.
	Strict bool
	// Poll is the follow-mode poll interval (default 50ms).
	Poll time.Duration
}

// Name implements Source.
func (s *NginxSource) Name() string {
	if s.Path != "" {
		return "nginx:" + s.Path
	}
	return "nginx:<reader>"
}

// Run implements Source.
func (s *NginxSource) Run(ctx context.Context, sink *Sink) error {
	r, closer, err := openSource(s.Path, s.R)
	if err != nil {
		return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
	}
	defer func() { _ = closer() }() // read-only source; close error unactionable
	if s.Follow {
		poll := s.Poll
		if poll <= 0 {
			poll = 50 * time.Millisecond
		}
		r = &tailReader{ctx: ctx, r: r, poll: poll}
	}
	err = ingestNginx(ctx, r, s.NumTypes, s.Strict, func(pts []core.Datapoint, free func(), read nginxTally) error {
		sink.tally(read)
		return sink.EmitBatch(ctx, pts, free)
	})
	if err == nil || err == ctx.Err() {
		return nil // a cancelled emit is shutdown, not a source failure
	}
	return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
}

// nginxTally is what ingestNginx saw in one read.
type nginxTally struct{ lines, rejected, parseErrors int64 }

// tally adds one access-log read to the stream's vital signs.
func (s *Sink) tally(t nginxTally) {
	s.d.ctr.lines.Add(t.lines)
	s.d.ctr.rejected.Add(t.rejected)
	s.d.ctr.parseErrors.Add(t.parseErrors)
}

// ingestNginx is the access-log read loop, shared by NginxSource.Run and
// POST /ingest. One read is one batch: every complete line of a read is
// parsed into a pooled harvester.NginxBatch, which goes to emit whole, with
// the read's tally, and comes back through the free list once folded — so a
// catch-up read of 64 KiB is some 400 lines per queue send, a follow-mode
// read is the few lines the poll found, and no line waits for a later read.
// Datapoints are numbered by physical line (blank lines count): access-log
// lines carry no sequence number of their own, and this one feeds the
// /freshness watermarks.
//
// A line that fails to parse is counted and skipped, unless strict, where
// it ends the pass with its line number once the lines before it in the
// same read have been emitted — except when ctx is already done: a shutdown
// racing a live append can tear the final line, and that is clean
// termination, not corrupt input. An error from emit is returned as is.
func ingestNginx(ctx context.Context, r io.Reader, numTypes int, strict bool,
	emit func(pts []core.Datapoint, free func(), read nginxTally) error) error {
	free := newFreeList[harvester.NginxBatch](freeListDepth)
	lr := harvester.NewLineReader(r)
	for lr.Fill() {
		var p *pooled[harvester.NginxBatch]
		select {
		case p = <-free:
		case <-ctx.Done():
			return ctx.Err()
		}
		b := &p.batch
		b.Reset()
		var read nginxTally
		var bad error
		for bad == nil && lr.Next() {
			read.lines++
			ok, err := b.Append(lr.Line(), numTypes, int64(lr.LineNo()))
			switch {
			case ok:
			case err == nil:
				read.rejected++
			case strict && ctx.Err() == nil:
				bad = fmt.Errorf("line %d: %w", lr.LineNo(), err)
			default:
				read.parseErrors++
			}
		}
		if err := emit(b.Points, p.release, read); err != nil {
			return err
		}
		if bad != nil {
			return bad
		}
	}
	return lr.Err()
}

// JSONLSource streams a core JSONL exploration dataset. Datasets are
// machine-written, so malformed lines abort (they signal corruption, not
// noise) — except for a partial trailing line racing shutdown in follow
// mode, which is counted as a parse error instead.
//
// This is deliberately the slow path: one encoding/json decode, a handful
// of allocations and one queue send per record. The access log has its
// batch path (NginxSource); a JSONL dataset that needs one is packed with
// recconv and read as binrec (BinSource).
type JSONLSource struct {
	Path string
	R    io.Reader
	// Follow keeps reading as the file grows.
	Follow bool
	// Poll is the follow-mode poll interval (default 50ms).
	Poll time.Duration
}

// Name implements Source.
func (s *JSONLSource) Name() string {
	if s.Path != "" {
		return "jsonl:" + s.Path
	}
	return "jsonl:<reader>"
}

// Run implements Source.
func (s *JSONLSource) Run(ctx context.Context, sink *Sink) error {
	r, closer, err := openSource(s.Path, s.R)
	if err != nil {
		return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
	}
	defer func() { _ = closer() }() // read-only source; close error unactionable
	if s.Follow {
		poll := s.Poll
		if poll <= 0 {
			poll = 50 * time.Millisecond
		}
		r = &tailReader{ctx: ctx, r: r, poll: poll}
	}
	err = core.ReadJSONLFunc(r, func(d core.Datapoint) error {
		sink.Line()
		if d.Validate() != nil {
			sink.Rejected()
			return nil
		}
		return sink.Emit(ctx, d)
	})
	switch {
	case err == nil:
		return nil
	case ctx.Err() != nil:
		// Shutdown mid-line: a truncated tail is expected, not corruption.
		sink.ParseError()
		return nil
	default:
		return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
	}
}

// CacheLogSource harvests a cache decision log (harvester/cachelog format).
// Reward reconstruction needs the paper's look-ahead join over the access
// log, so this source reads the file fully before emitting — it suits
// periodic batch ingestion of rotated logs rather than live tailing.
type CacheLogSource struct {
	Path string
	R    io.Reader
	// Horizon caps time-to-next-access when the evicted item never returns.
	Horizon float64
}

// Name implements Source.
func (s *CacheLogSource) Name() string {
	if s.Path != "" {
		return "cachelog:" + s.Path
	}
	return "cachelog:<reader>"
}

// ctxReader aborts a blocking read pipeline when ctx is cancelled. It checks
// between Reads rather than interrupting one — fine for file and in-memory
// inputs, where individual Reads return promptly.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// Run implements Source.
func (s *CacheLogSource) Run(ctx context.Context, sink *Sink) error {
	r, closer, err := openSource(s.Path, s.R)
	if err != nil {
		return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
	}
	defer func() { _ = closer() }() // read-only source; close error unactionable
	accesses, evictions, err := harvester.ScavengeCacheLogs(&ctxReader{ctx: ctx, r: r})
	if err != nil {
		if ctx.Err() != nil {
			return nil // shutdown mid-scan, not a source failure
		}
		return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
	}
	// Every scavenged line — accesses and eviction decisions alike — is one
	// raw input line. Harvested datapoints are counted separately below;
	// counting them under lines too would double-book each eviction.
	sink.Lines(len(accesses) + len(evictions))
	if ctx.Err() != nil {
		return nil
	}
	horizon := s.Horizon
	if horizon <= 0 {
		horizon = 2000
	}
	ds, err := harvester.HarvestEvictions(evictions, accesses, horizon)
	if err != nil {
		if err == core.ErrNoData {
			return nil
		}
		return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
	}
	sink.Harvested(len(ds))
	for i := range ds {
		if ctx.Err() != nil {
			return nil
		}
		if ds[i].Validate() != nil {
			sink.Rejected()
			continue
		}
		if err := sink.Emit(ctx, ds[i]); err != nil {
			return nil
		}
	}
	return nil
}

// BinSource streams a binrec binary harvest-record file — the bulk-transport
// ingest path. Decoded segments are handed to the daemon whole via
// Sink.EmitBatch, and decode buffers cycle through a small free list so the
// steady state allocates nothing per record: the decoder arena that a batch
// was decoded into is returned by the worker's free callback once folded.
//
// Binary files are machine-written, so corruption aborts the source — except
// a torn trailing segment racing shutdown in follow mode, which is counted
// as a parse error, mirroring JSONLSource's truncated-tail handling.
type BinSource struct {
	Path string
	R    io.Reader
	// Follow keeps reading as the file grows (tail -f) until shutdown.
	Follow bool
	// Poll is the follow-mode poll interval (default 50ms).
	Poll time.Duration
}

// Name implements Source.
func (s *BinSource) Name() string {
	if s.Path != "" {
		return "bin:" + s.Path
	}
	return "bin:<reader>"
}

// freeListDepth bounds the in-flight batches of one binary or access-log
// source: deep enough to keep decode or parse ahead of fold, small enough
// that a stalled worker pins only a few arenas.
const freeListDepth = 4

// pooled is one recycled decode or parse batch of a source, with the
// release callback that EmitBatch hands to the worker: made once per batch,
// not once per emit.
type pooled[B any] struct {
	batch   B
	release func()
}

// newFreeList returns a free list holding depth zero-value batches; each
// batch's release puts it back.
func newFreeList[B any](depth int) chan *pooled[B] {
	free := make(chan *pooled[B], depth)
	batches := make([]pooled[B], depth)
	for i := range batches {
		p := &batches[i]
		p.release = func() { free <- p }
		//lint:ignore ctxloop priming a buffered free list; capacity equals the trip count, sends never block
		free <- p
	}
	return free
}

// Run implements Source.
func (s *BinSource) Run(ctx context.Context, sink *Sink) error {
	r, closer, err := openSource(s.Path, s.R)
	if err != nil {
		return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
	}
	defer func() { _ = closer() }() // read-only source; close error unactionable
	if s.Follow {
		poll := s.Poll
		if poll <= 0 {
			poll = 50 * time.Millisecond
		}
		r = &tailReader{ctx: ctx, r: r, poll: poll}
	}
	free := newFreeList[binrec.Batch](freeListDepth)
	dec := binrec.NewDecoder(r)
	for {
		var p *pooled[binrec.Batch]
		select {
		case p = <-free:
		case <-ctx.Done():
			return nil
		}
		b := &p.batch
		err := dec.Next(b)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if ctx.Err() != nil && errors.Is(err, io.ErrUnexpectedEOF) {
				// Shutdown mid-segment: a torn tail is expected, not corruption.
				sink.ParseError()
				return nil
			}
			return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
		}
		sink.Lines(len(b.Points))
		if err := sink.EmitBatch(ctx, b.Points, p.release); err != nil {
			return nil // shutdown, not a source failure
		}
	}
}
