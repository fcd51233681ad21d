package harvestd

// BinSource tests plus regression tests for the ingestion-path bug sweep:
// cache-log metrics double-accounting, cache-log ctx deafness, the per-poll
// timer allocation in tailReader, and strict+follow shutdown classification.

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/harvester"
	"repro/internal/harvester/binrec"
)

// encodeBin is ds as one binrec stream; segBytes > 0 lowers the segment-seal
// threshold so even short fixtures span multiple segments.
func encodeBin(tb testing.TB, ds []core.Datapoint, segBytes int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc, err := binrec.NewEncoder(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	if segBytes > 0 {
		enc.SegmentBytes = segBytes
	}
	for i := range ds {
		if err := enc.Write(&ds[i]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// writeBinFile writes encodeBin(ds, segBytes) to a fresh file.
func writeBinFile(t *testing.T, path string, ds []core.Datapoint, segBytes int) {
	t.Helper()
	if err := os.WriteFile(path, encodeBin(t, ds, segBytes), 0o644); err != nil {
		t.Fatal(err)
	}
}

// allocsPerRun is the average allocation count of one src.Run over wire,
// the fold of its n records by d's workers included.
func allocsPerRun(t *testing.T, d *Daemon, wire []byte, n int, src func(*bytes.Reader) Source) float64 {
	t.Helper()
	sink := d.sinkFor("alloc-test")
	r := bytes.NewReader(wire)
	s := src(r)
	return testing.AllocsPerRun(10, func() {
		r.Reset(wire)
		target := d.ctr.folded.Load() + int64(n)
		if err := s.Run(context.Background(), sink); err != nil {
			t.Fatal(err)
		}
		if got := d.ctr.folded.Load(); got != target {
			t.Fatalf("Run returned with %d of its %d records folded", n-int(target-got), n)
		}
	})
}

// TestBinSourceAllocations pins the source side of the binary path: one Run
// allocates a fixed handful of objects — the free list with its segments and
// release closures, the decoder with its read buffer, and one payload buffer
// per pooled segment, sized by the first segment it meets — and nothing per
// segment after that, so a stream three times as long costs the same. The
// decoded batches are the workers', alive as long as they are, and no Run's
// cost. It was 97 per 4096-record Run when batches grew by doubling and
// every segment had its closure, and 23 when the source decoded into four
// pooled batches of its own.
func TestBinSourceAllocations(t *testing.T) {
	d, _ := startSourceDaemon(t, &BinSource{R: strings.NewReader("")})
	defer d.Shutdown(context.Background())
	ds := benchDatapoints(3 * 1024)
	perRun := func(ds []core.Datapoint) float64 {
		// ≈ 90 records a segment
		return allocsPerRun(t, d, encodeBin(t, ds, 8*1024), len(ds), func(r *bytes.Reader) Source { return &BinSource{R: r} })
	}
	short, long := perRun(ds[:1024]), perRun(ds)
	if long > short {
		t.Errorf("%v allocations for %d records, %v for %d: the extra segments allocate", short, 1024, long, len(ds))
	}
	t.Logf("allocations per Run: %v short, %v long", short, long)
	if short > 16 {
		t.Errorf("%v allocations per Run, want at most 16", short)
	}
}

// TestNginxSourceAllocations is the same pin on the text path: the free
// list, the line reader with its buffer, and one chunk buffer per pooled
// chunk; nothing per read or per line, in the reader or in the workers'
// parse.
func TestNginxSourceAllocations(t *testing.T) {
	d, _ := startSourceDaemon(t, &NginxSource{R: strings.NewReader("")})
	defer d.Shutdown(context.Background())
	const lines = 3 * 4096 // some 25 reads of 64 KiB
	logText := genNginxLog(lines, 87)
	perRun := func(n int) float64 {
		wire := []byte(strings.Join(strings.SplitAfter(logText, "\n")[:n], ""))
		return allocsPerRun(t, d, wire, n, func(r *bytes.Reader) Source { return &NginxSource{R: r} })
	}
	short, long := perRun(lines/3), perRun(lines)
	if long > short {
		t.Errorf("%v allocations for %d lines, %v for %d: the extra reads allocate", short, lines/3, long, lines)
	}
	t.Logf("allocations per Run: %v short, %v long", short, long)
	if short > 16 {
		t.Errorf("%v allocations per Run, want at most 16", short)
	}
}

// TestBinSourceIngest streams a multi-segment binary file through the
// batched ingest path and checks every counter agrees with the dataset.
func TestBinSourceIngest(t *testing.T) {
	ds := benchDatapoints(100)
	for i := range ds {
		ds[i].Seq = int64(i)
	}
	path := filepath.Join(t.TempDir(), "records.bin")
	writeBinFile(t, path, ds, 256) // force many segments
	d, reg := startSourceDaemon(t, &BinSource{Path: path})
	defer d.Shutdown(context.Background())

	waitFor(t, 10*time.Second, "records folded", func() bool { return reg.TotalN() == 100 })
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("source errors: %v", errs)
	}
	if got := d.ctr.lines.Load(); got != 100 {
		t.Errorf("lines = %d, want 100", got)
	}
	if got := d.ctr.ingested.Load(); got != 100 {
		t.Errorf("ingested = %d, want 100", got)
	}
	if got := d.ctr.rejected.Load(); got != 0 {
		t.Errorf("rejected = %d, want 0", got)
	}
	if c0, _ := reg.Estimate("always-0", 0.05); c0.N != 100 {
		t.Errorf("always-0 n = %d, want 100", c0.N)
	}
}

// TestBinSourceMatchesJSONL: the same dataset ingested through the binary
// path and the JSONL path must produce identical estimates — the codec is a
// transport, not a transform.
func TestBinSourceMatchesJSONL(t *testing.T) {
	ds := benchDatapoints(200)
	for i := range ds {
		ds[i].Seq = int64(i)
	}

	var bin bytes.Buffer
	enc, err := binrec.NewEncoder(&bin)
	if err != nil {
		t.Fatal(err)
	}
	enc.SegmentBytes = 512
	for i := range ds {
		if err := enc.Write(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	var jsonl bytes.Buffer
	jw := core.NewJSONLWriter(&jsonl)
	for i := range ds {
		if err := jw.Write(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	// One worker per daemon: fold order is then source order on both paths,
	// so the estimates must agree bit-for-bit (float summation is not
	// associative across shards).
	start := func(src Source) (*Daemon, *Registry) {
		t.Helper()
		reg := newTestRegistry(t, 1)
		d, err := New(Config{Workers: 1, Clip: 10}, reg)
		if err != nil {
			t.Fatal(err)
		}
		d.AddSource(src)
		if err := d.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		return d, reg
	}
	dBin, regBin := start(&BinSource{R: bytes.NewReader(bin.Bytes())})
	dJSON, regJSON := start(&JSONLSource{R: bytes.NewReader(jsonl.Bytes())})
	defer dBin.Shutdown(context.Background())
	defer dJSON.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "both folded", func() bool {
		return regBin.TotalN() == 200 && regJSON.TotalN() == 200
	})
	for _, name := range regBin.Names() {
		eb, _ := regBin.Estimate(name, 0.05)
		ej, _ := regJSON.Estimate(name, 0.05)
		if eb.IPS.Value != ej.IPS.Value || eb.SNIPS.Value != ej.SNIPS.Value {
			t.Errorf("%s: bin %v/%v vs jsonl %v/%v", name,
				eb.IPS.Value, eb.SNIPS.Value, ej.IPS.Value, ej.SNIPS.Value)
		}
	}
}

// TestBinSourceFollowAppend exercises tail -f over a binary file: segments
// appended by a live writer (append framing, no duplicate header) are
// decoded and folded until shutdown.
func TestBinSourceFollowAppend(t *testing.T) {
	ds := benchDatapoints(60)
	path := filepath.Join(t.TempDir(), "records.bin")
	writeBinFile(t, path, ds[:40], 0)

	d, reg := startSourceDaemon(t, &BinSource{Path: path, Follow: true, Poll: 2 * time.Millisecond})
	defer d.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "initial records", func() bool { return reg.TotalN() == 40 })

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := binrec.NewAppendEncoder(f)
	for i := 40; i < 60; i++ {
		if err := enc.Write(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "appended records", func() bool { return reg.TotalN() == 60 })
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("source errors: %v", errs)
	}
}

// TestBinSourceTornTailShutdown: shutting down a follow-mode binary source
// mid-segment (a writer was interrupted) is clean termination — counted as
// one parse error, never a source failure.
func TestBinSourceTornTailShutdown(t *testing.T) {
	ds := benchDatapoints(40)
	path := filepath.Join(t.TempDir(), "records.bin")
	writeBinFile(t, path, ds[:30], 0)

	// Append a torn segment: marker and length present, final payload bytes
	// missing — a writer interrupted mid-append.
	var seg bytes.Buffer
	enc := binrec.NewAppendEncoder(&seg)
	for i := 30; i < 40; i++ {
		if err := enc.Write(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(seg.Bytes()[:seg.Len()-3]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	d, reg := startSourceDaemon(t, &BinSource{Path: path, Follow: true, Poll: 2 * time.Millisecond})
	waitFor(t, 10*time.Second, "intact prefix folded", func() bool { return reg.TotalN() == 30 })
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("torn tail at shutdown misclassified as source failure: %v", errs)
	}
	if got := d.ctr.parseErrors.Load(); got != 1 {
		t.Errorf("parse errors = %d, want 1 (the torn tail)", got)
	}
}

// TestBinSourceCorruption: a flipped payload byte in batch mode is a hard
// source failure (binary files are machine-written; corruption must not be
// silently skipped).
func TestBinSourceCorruption(t *testing.T) {
	ds := benchDatapoints(20)
	var buf bytes.Buffer
	enc, err := binrec.NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if err := enc.Write(&ds[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	wire[len(wire)-5] ^= 0xff // inside the single segment's payload

	d, _ := startSourceDaemon(t, &BinSource{R: bytes.NewReader(wire)})
	defer d.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "corruption detected", func() bool {
		return len(d.SourceErrors()) == 1
	})
	if err := d.SourceErrors()[0]; !strings.Contains(err.Error(), "binrec") {
		t.Errorf("error %q should come from the binrec decoder", err)
	}
}

// TestBinSourceUndecodableSegment: a segment that passes its CRC and does not
// decode — an encoder's fault, which no reader-side check can see now that
// the workers decode — still fails the source with the decoder's error, and
// folds nothing of its own. With one worker batches come home in send order,
// so at most freeListDepth-1 later segments fold before the verdict; with
// two they come home in release order and the test bounds only from below.
func TestBinSourceUndecodableSegment(t *testing.T) {
	ds := benchDatapoints(600)
	good := encodeBin(t, ds, 2048) // some 25 segments
	// One record claiming 127 bytes in a 2-byte payload, under a true CRC.
	payload := []byte{0x7f, 0x00}
	bad := binary.AppendUvarint(binary.AppendUvarint([]byte{'S'}, 1), uint64(len(payload)))
	bad = append(binary.LittleEndian.AppendUint32(bad, crc32.ChecksumIEEE(payload)), payload...)
	const hdr = 5 // "HRVB" and the version, which a second stream's segments go without
	wire := append(append(append([]byte(nil), good...), bad...), good[hdr:]...)

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := newTestRegistry(t, 2)
			d, err := New(Config{Workers: workers, Clip: 10}, reg)
			if err != nil {
				t.Fatal(err)
			}
			d.AddSource(&BinSource{R: bytes.NewReader(wire)})
			if err := d.Start(context.Background()); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 10*time.Second, "decode failure", func() bool { return len(d.SourceErrors()) == 1 })
			if err := d.SourceErrors()[0].Error(); !strings.Contains(err, "binrec: segment") || !strings.Contains(err, "record length 127") {
				t.Errorf("error %q should be the binrec decoder's, naming the segment and the record length", err)
			}
			if err := d.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			// Everything before the bad segment; with one worker, at most the
			// freeListDepth-1 segments (under 30 records each) sent behind it.
			n := reg.TotalN()
			if n < 600 {
				t.Errorf("folded %d records, want at least the 600 before the bad segment", n)
			}
			if workers == 1 && n > 600+(freeListDepth-1)*30 {
				t.Errorf("folded %d records, want at most %d after the bad segment", n, (freeListDepth-1)*30)
			}
			if l, f := d.ctr.lines.Load(), d.ctr.folded.Load(); l != f || d.ctr.parseErrors.Load() != 0 {
				t.Errorf("lines %d, folded %d, parse errors %d: the bad segment must count for nothing", l, f, d.ctr.parseErrors.Load())
			}
		})
	}
}

// TestCacheLogSourceCounters pins the metrics fix: every scavenged line
// (accesses and eviction decisions) is counted under lines exactly once,
// and reconstructed datapoints are counted under harvested — previously
// eviction datapoints were double-booked as input lines while the eviction
// lines themselves went uncounted.
func TestCacheLogSourceCounters(t *testing.T) {
	accesses := []cachesim.AccessRecord{
		{Time: 1, Key: "a", Size: 10, Hit: false},
		{Time: 2, Key: "b", Size: 10, Hit: false},
		{Time: 5, Key: "a", Size: 10, Hit: true},
	}
	evictions := []cachesim.EvictionRecord{{
		Time:       3,
		Chosen:     0,
		Propensity: 0.5,
		Candidates: []cachesim.Candidate{
			{Key: "a", Size: 10, LastAccess: 1, Frequency: 1, InsertedAt: 1},
			{Key: "b", Size: 10, LastAccess: 2, Frequency: 1, InsertedAt: 2},
		},
	}}
	var buf strings.Builder
	if err := harvester.WriteCacheLogs(&buf, accesses, evictions); err != nil {
		t.Fatal(err)
	}
	d, reg := startSourceDaemon(t, &CacheLogSource{R: strings.NewReader(buf.String()), Horizon: 100})
	defer d.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "eviction harvested", func() bool { return reg.TotalN() == 1 })

	if got, want := d.ctr.lines.Load(), int64(len(accesses)+len(evictions)); got != want {
		t.Errorf("lines = %d, want %d (each scavenged line once)", got, want)
	}
	if got := d.ctr.harvested.Load(); got != 1 {
		t.Errorf("harvested = %d, want 1", got)
	}
	if got := d.ctr.ingested.Load(); got != 1 {
		t.Errorf("ingested = %d, want 1", got)
	}
}

// endlessAccessLog emits valid cache-log access lines forever, cancelling
// ctx after the first read so a ctx-deaf scavenge would spin unbounded.
type endlessAccessLog struct {
	cancel context.CancelFunc
	n      int
}

func (e *endlessAccessLog) Read(p []byte) (int, error) {
	if e.cancel != nil {
		e.cancel()
		e.cancel = nil
	}
	e.n++
	line := fmt.Sprintf("A %d %q 10 0\n", e.n, "k")
	return copy(p, line), nil
}

// TestCacheLogSourceCancellation pins the ctx fix: Run on an unbounded
// input must return promptly (and cleanly) once ctx is cancelled —
// previously the source ignored ctx entirely and read to EOF.
func TestCacheLogSourceCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := newTestRegistry(t, 2)
	d, err := New(Config{Workers: 2, Clip: 10}, reg)
	if err != nil {
		t.Fatal(err)
	}
	src := &CacheLogSource{R: &endlessAccessLog{cancel: cancel}, Horizon: 100}
	done := make(chan error, 1)
	go func() { done <- src.Run(ctx, &Sink{d: d}) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cancelled run must not report a source failure: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CacheLogSource.Run ignored ctx cancellation")
	}
}

// eofThenData returns io.EOF eofs times before each byte of data, forcing a
// deterministic number of tail polls without goroutines.
type eofThenData struct{ eofs int }

func (r *eofThenData) Read(p []byte) (int, error) {
	if r.eofs > 0 {
		r.eofs--
		return 0, nil // a reader may legally return 0, nil; tailReader polls
	}
	r.eofs = 3
	p[0] = 'x'
	return 1, nil
}

// TestTailReaderReusesTimer pins the poll-timer fix: every poll iteration
// used to allocate a fresh runtime timer via time.After; the reader must
// now create one timer and Reset it.
func TestTailReaderReusesTimer(t *testing.T) {
	tr := &tailReader{ctx: context.Background(), r: &eofThenData{eofs: 3}, poll: time.Microsecond}
	p := make([]byte, 16)

	if _, err := tr.Read(p); err != nil { // polls 3 times before data lands
		t.Fatal(err)
	}
	first := tr.timer
	if first == nil {
		t.Fatal("polling read did not create the reusable timer")
	}
	if _, err := tr.Read(p); err != nil { // 3 more polls
		t.Fatal(err)
	}
	if tr.timer != first {
		t.Error("tailReader allocated a new timer instead of reusing the first")
	}
}

// TestNginxSourceStrictFollowShutdown: cancelling a strict follow-mode
// source whose file ends in a torn line is clean shutdown, not a strict
// parse failure — the tail was cut by the writer racing us, not corrupt.
func TestNginxSourceStrictFollowShutdown(t *testing.T) {
	logText := genNginxLog(20, 81)
	torn := logText + logText[:len(logText)/40] // partial final line, no newline
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	d, reg := startSourceDaemon(t, &NginxSource{
		Path: path, Follow: true, Strict: true, Poll: 2 * time.Millisecond,
	})
	waitFor(t, 10*time.Second, "complete lines folded", func() bool { return reg.TotalN() == 20 })
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("shutdown misclassified as strict parse failure: %v", errs)
	}
}

// TestNginxSourceOverLimitLine: a line beyond core.MaxRecordBytes fails the
// source with the scanner's token-too-long error (satellite of the shared
// scan-limit unification; the limit used to be a private 8 MiB literal).
func TestNginxSourceOverLimitLine(t *testing.T) {
	huge := strings.Repeat("x", 16*1024*1024+1) + "\n"
	d, _ := startSourceDaemon(t, &NginxSource{R: strings.NewReader(huge)})
	defer d.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "over-limit failure", func() bool {
		return len(d.SourceErrors()) == 1
	})
	if err := d.SourceErrors()[0]; !strings.Contains(err.Error(), "token too long") {
		t.Errorf("error %q should be the scanner limit", err)
	}
}

// TestJSONLSourceOverLimitLine: same guard on the JSONL path, which reads
// through core.ReadJSONLFunc's shared limit.
func TestJSONLSourceOverLimitLine(t *testing.T) {
	huge := strings.Repeat("x", 16*1024*1024+1) + "\n"
	d, _ := startSourceDaemon(t, &JSONLSource{R: strings.NewReader(huge)})
	defer d.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "over-limit failure", func() bool {
		return len(d.SourceErrors()) == 1
	})
	if err := d.SourceErrors()[0]; !strings.Contains(err.Error(), "token too long") {
		t.Errorf("error %q should be the scanner limit", err)
	}
}
