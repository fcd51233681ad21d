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
	return s.send(ctx, ingestBatch{pts: []core.Datapoint{d}})
}

// EmitBatch offers a whole slice of datapoints to the worker queue in one
// channel operation. Ownership of pts transfers to the daemon until free
// runs (after the batch is folded); sources recycling decode buffers pass a
// free that returns the batch to their pool, and must not touch pts before
// it fires. free may be nil.
func (s *Sink) EmitBatch(ctx context.Context, pts []core.Datapoint, free func()) error {
	if len(pts) == 0 {
		if free != nil {
			free()
		}
		return nil
	}
	return s.send(ctx, ingestBatch{pts: pts, free: free})
}

// send enqueues a batch, decoded or raw, on behalf of the sink's source.
func (s *Sink) send(ctx context.Context, bt ingestBatch) error {
	bt.src = s.src
	return s.d.enqueue(ctx, bt)
}

// tailReader turns a file into a follow-forever reader (tail -f): on EOF it
// polls for appended data until ctx is cancelled, then reports io.EOF so
// downstream record scanners terminate cleanly and see a half-written record
// as truncated — or, when torn is set, ctx.Err(): half a text line can read
// as a whole one, and on an error the line reader drops its tail.
type tailReader struct {
	ctx   context.Context
	r     io.Reader
	poll  time.Duration
	torn  bool
	timer *time.Timer // reused across polls; a per-poll time.After leaks a timer allocation every interval
}

// follow is a tailReader over r polling every poll (default 50ms).
func follow(ctx context.Context, r io.Reader, poll time.Duration, torn bool) io.Reader {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	return &tailReader{ctx: ctx, r: r, poll: poll, torn: torn}
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
			if t.torn {
				return 0, t.ctx.Err()
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
// writes, so this is the deployed input and a fast path: see readNginx.
type NginxSource struct {
	// Path is the log file; R overrides it with an in-process reader.
	Path string
	R    io.Reader
	// Follow keeps reading as the file grows (tail -f) until shutdown; what
	// the file then ends in short of a newline may be half a line and is left
	// for the next start.
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
		r = follow(ctx, r, s.Poll, true)
	}
	_, err = readNginx(ctx, r, s.NumTypes, s.Strict, func(bt ingestBatch) error { return sink.send(ctx, bt) })
	if err == nil || err == ctx.Err() {
		return nil // a cancelled read, emit or wait is shutdown, not a source failure
	}
	return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
}

// textChunk is an access-log read in wire form: its complete lines, and
// what a worker needs to parse them as the reader would have.
type textChunk struct {
	text     []byte // see pooled for who may touch it when
	after    int    // physical line number the chunk starts after
	numTypes int
	strict   bool
	ctx      context.Context // the pass's: Strict stands down once it is done
}

// decode implements rawBatch. Datapoints are numbered by physical line
// (blank lines count): access-log lines carry no sequence number of their
// own, and this one feeds the /freshness watermarks. A line that fails to
// parse is counted and skipped, unless strict, where it ends the chunk as
// its verdict, with its line number — except when ctx is already done: a
// shutdown racing a live append can tear a line, and that is clean
// termination, not corrupt input.
func (c *textChunk) decode(s *scratch, t *tally) []core.Datapoint {
	b := &s.text
	b.Reset()
	lines := harvester.LinesOf(c.text, c.after)
	for t.err == nil && lines.Next() {
		t.lines++
		ok, err := b.Append(lines.Line(), c.numTypes, int64(lines.LineNo()))
		switch {
		case ok:
		case err == nil:
			t.rejected++
		case c.strict && c.ctx.Err() == nil:
			t.err = fmt.Errorf("line %d: %w", lines.LineNo(), err)
		default:
			t.parseErrors++
		}
	}
	return b.Points
}

// readNginx is the access-log read loop, shared by NginxSource.Run and
// POST /ingest, and all it does is read. One read is one batch: the
// complete lines of a read are copied into a pooled chunk and sent raw, so
// a catch-up read of 64 KiB is some 400 lines per queue send, a follow-mode
// read is the few lines the poll found, and no line waits for a later read.
// The worker that takes the chunk parses and folds it and sends it home
// through the free list with its tally; the tallies' sum is returned, and
// with a nil error it is complete and every line of it folded.
//
// A strict pass keeps one chunk in flight, not freeListDepth: the reader has
// the verdict on a chunk before it sends the next, so the lines before a
// malformed one are folded, nothing after it is, and the error names it. An
// error from send is returned as is; a failed read outranks whatever ended
// the wait for the chunks still out.
func readNginx(ctx context.Context, r io.Reader, numTypes int, strict bool, send func(ingestBatch) error) (tally, error) {
	depth := freeListDepth
	if strict {
		depth = 1
	}
	free := newFreeList[textChunk](depth)
	var total tally
	lr := harvester.NewLineReader(r)
	for lr.Fill() {
		p, err := reclaim(ctx, free, &total)
		if err != nil {
			return total, err
		}
		c := &p.batch
		c.after, c.numTypes, c.strict, c.ctx = lr.LineNo(), numTypes, strict, ctx
		c.text = append(c.text[:0], lr.Take()...)
		if err := send(ingestBatch{raw: c, home: &p.tally, queued: int64(lr.LineNo() - c.after), free: p.release}); err != nil {
			return total, err
		}
	}
	err := reclaimAll(ctx, free, &total)
	if rerr := lr.Err(); rerr != nil {
		err = rerr
	}
	return total, err
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
		r = follow(ctx, r, s.Poll, false)
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
// ingest path. The source goroutine frames, reads and CRC-checks segments
// (readBin) and queues them raw; segment buffers cycle through a small free
// list and each worker decodes into its own batch, so the steady state
// allocates nothing per record.
//
// Binary files are machine-written, so corruption aborts the source, and in
// order: a segment that fails its framing or CRC is never queued, nor
// anything after it — except a torn trailing segment racing shutdown in
// follow mode, which is counted as a parse error, mirroring JSONLSource's
// truncated-tail handling. A segment that passes its CRC and fails to decode
// (an encoder bug, not corruption) fails the source when its verdict comes
// home, and later segments may be folded by then. With one worker at most
// freeListDepth-1 of them are, because batches come home in the order they
// were sent. With more there is no such bound: the free list returns batches
// in release order, not send order, and later segments keep folding until
// the bad segment's verdict comes home.
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
// pass: deep enough to keep every worker decoding while the reader reads,
// small enough that a stalled worker pins only a few buffers.
const freeListDepth = 4

// pooled is one recycled raw batch of a pass — a textChunk or a binSegment —
// with the tally its last trip brought home and the release callback that
// goes onto the queue with it: made once per batch, not once per send.
// Ownership: from send until release the batch is the daemon's and its bytes
// do not change — the worker parses them in place (NginxBatch.Append views a
// line through unsafe.String), writes only the tally, and releases last.
// From release to the next send it is the reader's, tally and bytes.
type pooled[B any] struct {
	batch   B
	tally   tally
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

// reclaim waits for a batch to come home, moves its tally into total, and
// returns it for refilling — or the verdict on it, which ends the pass.
func reclaim[B any](ctx context.Context, free chan *pooled[B], total *tally) (*pooled[B], error) {
	select {
	case p := <-free:
		t := p.tally
		p.tally = tally{}
		total.lines += t.lines
		total.ingested += t.ingested
		total.rejected += t.rejected
		total.parseErrors += t.parseErrors
		return p, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// reclaimAll ends a pass: the reader, holding no batch, waits for all of
// them, so that total is complete and everything sent is folded.
func reclaimAll[B any](ctx context.Context, free chan *pooled[B], total *tally) error {
	for i := 0; i < cap(free); i++ {
		if _, err := reclaim(ctx, free, total); err != nil {
			return err
		}
	}
	return nil
}

// Run implements Source.
func (s *BinSource) Run(ctx context.Context, sink *Sink) error {
	r, closer, err := openSource(s.Path, s.R)
	if err != nil {
		return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
	}
	defer func() { _ = closer() }() // read-only source; close error unactionable
	if s.Follow {
		r = follow(ctx, r, s.Poll, false)
	}
	_, err = readBin(ctx, r, func(bt ingestBatch) error { return sink.send(ctx, bt) })
	switch {
	case err == nil || err == ctx.Err():
		return nil // a cancelled emit or wait is shutdown, not a source failure
	case ctx.Err() != nil && errors.Is(err, io.ErrUnexpectedEOF):
		// Shutdown mid-segment: a torn tail is expected, not corruption.
		sink.ParseError()
		return nil
	default:
		return fmt.Errorf("harvestd: %s: %w", s.Name(), err)
	}
}

// binSegment is a binrec segment in wire form: read, framed and CRC-checked.
type binSegment binrec.Segment

// decode implements rawBatch: a record is a line, and a segment that fails
// to decode yields none, its error being the verdict.
func (c *binSegment) decode(s *scratch, t *tally) []core.Datapoint {
	if t.err = s.bin.Decode((*binrec.Segment)(c)); t.err != nil {
		return nil
	}
	t.lines = int64(len(s.bin.Points))
	return s.bin.Points
}

// readBin is the binrec read loop, shared by BinSource.Run and POST
// /ingest?format=bin: readNginx's protocol with a segment for a read. The
// CRC stays here, with the one goroutine that sees the stream in order.
func readBin(ctx context.Context, r io.Reader, send func(ingestBatch) error) (tally, error) {
	free := newFreeList[binSegment](freeListDepth)
	var total tally
	dec := binrec.NewDecoder(r)
	for {
		p, err := reclaim(ctx, free, &total)
		if err != nil {
			return total, err
		}
		seg := (*binrec.Segment)(&p.batch)
		if err := dec.ReadSegment(seg); err != nil {
			if err != io.EOF {
				return total, err
			}
			p.release()
			return total, reclaimAll(ctx, free, &total)
		}
		if err := send(ingestBatch{raw: &p.batch, home: &p.tally, queued: int64(seg.Records), free: p.release}); err != nil {
			return total, err
		}
	}
}
