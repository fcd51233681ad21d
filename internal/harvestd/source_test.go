package harvestd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/harvester"
	"repro/internal/obs"
)

// startSourceDaemon wires one source into a 2-worker daemon and starts it.
func startSourceDaemon(t *testing.T, src Source) (*Daemon, *Registry) {
	t.Helper()
	reg := newTestRegistry(t, 2)
	d, err := New(Config{Workers: 2, Clip: 10}, reg)
	if err != nil {
		t.Fatal(err)
	}
	d.AddSource(src)
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	return d, reg
}

// TestNginxSourceFollowTail exercises the tail -f path: the daemon keeps
// harvesting lines appended to a live log file until shutdown.
func TestNginxSourceFollowTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte(genNginxLog(40, 71)), 0o644); err != nil {
		t.Fatal(err)
	}
	d, reg := startSourceDaemon(t, &NginxSource{
		Path: path, Follow: true, Poll: 2 * time.Millisecond,
	})
	defer d.Shutdown(context.Background())

	waitFor(t, 10*time.Second, "initial lines", func() bool { return reg.TotalN() == 40 })

	// Append more lines as a live server would.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(genNginxLog(25, 72)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "appended lines", func() bool { return reg.TotalN() == 65 })
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("source errors: %v", errs)
	}
}

// TestNginxSourceTolerantVsStrict: the same corrupt log is survivable in the
// default (live-tail) mode and fatal in Strict (batch-backfill) mode.
func TestNginxSourceTolerantVsStrict(t *testing.T) {
	logText := genNginxLog(10, 73) + "not an access line\n" + genNginxLog(5, 74)

	d, reg := startSourceDaemon(t, &NginxSource{R: strings.NewReader(logText)})
	waitFor(t, 10*time.Second, "tolerant harvest", func() bool { return reg.TotalN() == 15 })
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("tolerant mode must not fail the source: %v", errs)
	}
	waitFor(t, 5*time.Second, "parse error counted", func() bool {
		return d.ctr.parseErrors.Load() == 1
	})
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	d2, _ := startSourceDaemon(t, &NginxSource{R: strings.NewReader(logText), Strict: true})
	waitFor(t, 10*time.Second, "strict failure", func() bool {
		return len(d2.SourceErrors()) == 1
	})
	if err := d2.SourceErrors()[0]; !strings.Contains(err.Error(), "line 11") {
		t.Errorf("strict error %q should name line 11", err)
	}
	if err := d2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSourceMissingFile(t *testing.T) {
	d, _ := startSourceDaemon(t, &NginxSource{Path: filepath.Join(t.TempDir(), "no-such.log")})
	defer d.Shutdown(context.Background())
	waitFor(t, 5*time.Second, "open failure", func() bool {
		return len(d.SourceErrors()) == 1
	})
}

// TestCacheLogSource round-trips a hand-built decision log through the
// WriteCacheLogs format and harvests one datapoint per eviction.
func TestCacheLogSource(t *testing.T) {
	accesses := []cachesim.AccessRecord{
		{Time: 1, Key: "a", Size: 10, Hit: false},
		{Time: 2, Key: "b", Size: 10, Hit: false},
		{Time: 5, Key: "a", Size: 10, Hit: true}, // "a" comes back: small gap
	}
	evictions := []cachesim.EvictionRecord{
		{
			Time:       3,
			Chosen:     0,
			Propensity: 0.5,
			Candidates: []cachesim.Candidate{
				{Key: "a", Size: 10, LastAccess: 1, Frequency: 1, InsertedAt: 1},
				{Key: "b", Size: 10, LastAccess: 2, Frequency: 1, InsertedAt: 2},
			},
		},
		{
			Time:       4,
			Chosen:     1,
			Propensity: 0.5,
			Candidates: []cachesim.Candidate{
				{Key: "a", Size: 10, LastAccess: 1, Frequency: 1, InsertedAt: 1},
				{Key: "b", Size: 10, LastAccess: 2, Frequency: 1, InsertedAt: 2},
			},
		},
	}
	var buf strings.Builder
	if err := harvester.WriteCacheLogs(&buf, accesses, evictions); err != nil {
		t.Fatal(err)
	}

	d, reg := startSourceDaemon(t, &CacheLogSource{R: strings.NewReader(buf.String()), Horizon: 100})
	defer d.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "evictions harvested", func() bool {
		return reg.TotalN() == int64(len(evictions))
	})
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("source errors: %v", errs)
	}

	// Eviction contexts carry per-candidate ActionFeatures only; the LB
	// policy in the registry panics on them and must be skipped (counted),
	// not crash the daemon.
	waitFor(t, 5*time.Second, "panics counted", func() bool {
		return reg.EvalPanics() == int64(len(evictions))
	})
	ll, ok := reg.Estimate("leastloaded", 0.05)
	if !ok || ll.N != 0 {
		t.Errorf("leastloaded folded %d eviction datapoints, want 0", ll.N)
	}
	if c0, _ := reg.Estimate("always-0", 0.05); c0.N != int64(len(evictions)) {
		t.Errorf("always-0 n = %d, want %d", c0.N, len(evictions))
	}
}

// sizedReader returns at most n bytes per Read.
type sizedReader struct {
	r io.Reader
	n int
}

func (s sizedReader) Read(p []byte) (int, error) {
	if len(p) > s.n {
		p = p[:s.n]
	}
	return s.r.Read(p)
}

// clonePoints deep-copies datapoints out of a batch arena.
func clonePoints(pts []core.Datapoint) []core.Datapoint {
	out := make([]core.Datapoint, len(pts))
	for i, p := range pts {
		p.Context.Features = slices.Clone(p.Context.Features)
		rows := make([]core.Vector, len(p.Context.ActionFeatures))
		for j, row := range p.Context.ActionFeatures {
			rows[j] = slices.Clone(row)
		}
		p.Context.ActionFeatures = rows
		out[i] = p
	}
	return out
}

// messyNginxLog is an access log with everything the read loop has to get
// right around the lines themselves: blank lines (which count towards Seq),
// CRLF endings, padding, lines that parse but carry nothing, lines that do
// not parse, a self-contradicting line, request types 0–2, and no final
// newline.
func messyNginxLog(n int, seed int64) string { return messUp(genNginxLog(n, seed)) }

// messUp is messyNginxLog over a given clean log.
func messUp(clean string) string {
	var b strings.Builder
	lines := strings.Split(strings.TrimSpace(clean), "\n")
	n := len(lines)
	for i, line := range lines {
		line += fmt.Sprintf(" type=%d", i%3)
		switch i % 17 {
		case 3:
			b.WriteString("\n \t\n")
		case 5:
			line = "  " + line + " \r"
		case 8:
			line = strings.Replace(line, " 200 ", " 502 ", 1)
		case 11:
			line = "torn " + line[len(line)/2:]
		case 13:
			line = strings.Replace(line, "upstream=", "upstream=7", 1)
		}
		b.WriteString(line)
		if i < n-1 {
			b.WriteString("\n")
		}
	}
	return b.String()
}

// dyadicRewards rewrites every request time of an access log to a multiple
// of 1/64: with the logs' propensity of 0.5 every accumulator sum is then
// exact, so estimates do not depend on fold order or sharding and can be
// compared byte for byte across worker counts.
func dyadicRewards(logText string) string {
	k := 0
	return regexp.MustCompile(`rt=[0-9.]+`).ReplaceAllStringFunc(logText, func(string) string {
		k++
		return fmt.Sprintf("rt=%.6f", float64(1+k%63)/64)
	})
}

// asJSON renders v as the HTTP API would.
func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestNginxSourceMatchesPerLineReference: however the input is cut into
// reads — a byte at a time, seven, about a line, or all at once — and
// however many workers parse the chunks, the read loop yields the
// datapoints, Seqs and counters of the per-line loop it replaced (Scanner,
// TrimSpace, ParseNginxLine, EntryToTypedDatapoint), and leaves /estimates
// and /freshness byte-identical to a daemon handed the same reads as decoded
// batches, which is how a read travelled before the parse moved to the
// workers.
func TestNginxSourceMatchesPerLineReference(t *testing.T) {
	logText := messUp(dyadicRewards(genNginxLog(700, 81)))
	ctx := context.Background()
	start := func(workers int) *Daemon {
		t.Helper()
		d, err := New(Config{Workers: workers, Clock: &obs.FixedClock{T: time.Unix(9000, 0)}}, newTestRegistry(t, workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(ctx); err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, numTypes := range []int{1, 2} {
		var want []core.Datapoint
		var wantTally tally
		sc := bufio.NewScanner(strings.NewReader(logText))
		for lineNo := 1; sc.Scan(); lineNo++ {
			line := strings.TrimSpace(sc.Text())
			if line == "" {
				continue
			}
			wantTally.lines++
			e, err := harvester.ParseNginxLine(line)
			if err != nil {
				wantTally.parseErrors++
				continue
			}
			d, ok, err := harvester.EntryToTypedDatapoint(e, numTypes)
			if err != nil {
				wantTally.parseErrors++
				continue
			}
			if !ok {
				wantTally.rejected++
				continue
			}
			d.Seq = int64(lineNo)
			want = append(want, d)
		}
		wantTally.ingested = int64(len(want))
		if numTypes == 1 && (wantTally.parseErrors < 50 || wantTally.rejected < 30 || len(want) < 500) {
			t.Fatalf("the input is not doing its job: %+v", wantTally)
		}

		for _, readSize := range []int{1, 7, 150, 64 * 1024} {
			for _, workers := range []int{1, 2, 4} {
				name := fmt.Sprintf("types %d, %d-byte reads, %d workers", numTypes, readSize, workers)
				d := start(workers)
				sink := d.sinkFor("t")
				// On its way to the queue every chunk is also decoded here, as
				// a worker will decode it: the bytes a worker gets hold these
				// points, and the counters and estimates below say the workers
				// found them.
				var reads [][]core.Datapoint
				var mine scratch
				got, err := readNginx(ctx, sizedReader{strings.NewReader(logText), readSize}, numTypes, false, func(bt ingestBatch) error {
					var t tally
					if pts := bt.raw.decode(&mine, &t); len(pts) > 0 {
						reads = append(reads, clonePoints(pts))
					}
					return sink.send(ctx, bt)
				})
				// No waiting: a nil return says every chunk is home, folded and counted.
				if err != nil {
					t.Fatal(err)
				}
				if got != wantTally {
					t.Errorf("%s: tally %+v, want %+v", name, got, wantTally)
				}
				if c := ingestCounters(d); c != wantTally || d.ctr.folded.Load() != wantTally.ingested {
					t.Errorf("%s: counters %+v, folded %d, want %+v all folded", name, c, d.ctr.folded.Load(), wantTally)
				}
				var flat []core.Datapoint
				for _, pts := range reads {
					flat = append(flat, pts...)
				}
				if !reflect.DeepEqual(flat, want) {
					t.Errorf("%s: %d datapoints differ from the reference's %d", name, len(flat), len(want))
				}
				// One read, one batch: small reads cannot batch more than the
				// lines they complete, one big read takes the whole log.
				if readSize == 64*1024 && len(reads) > len(logText)/readSize+2 {
					t.Errorf("%s: %d batches for %d bytes", name, len(reads), len(logText))
				}
				if readSize <= 7 && len(reads) != len(want) {
					t.Errorf("%s: %d batches for %d harvested lines, want one each", name, len(reads), len(want))
				}

				ref := start(1)
				for _, pts := range reads {
					if err := ref.sinkFor("t").send(ctx, ingestBatch{pts: pts}); err != nil {
						t.Fatal(err)
					}
				}
				waitFor(t, 10*time.Second, "reference folds", func() bool { return ref.ctr.folded.Load() == wantTally.ingested })
				if got, want := asJSON(t, d.Estimates()), asJSON(t, ref.Estimates()); got != want {
					t.Errorf("%s: /estimates differ from the decoded-batch daemon's:\n got  %s\n want %s", name, got, want)
				}
				if got, want := asJSON(t, d.FreshnessNow()), asJSON(t, ref.FreshnessNow()); got != want {
					t.Errorf("%s: /freshness differs from the decoded-batch daemon's:\n got  %s\n want %s", name, got, want)
				}
				for _, d := range []*Daemon{d, ref} {
					if err := d.Shutdown(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestNginxSourceBatchOwnership: a chunk's bytes stay untouched from send
// until its release runs, however far the reader runs ahead — it must wait
// for a chunk to come home rather than read into one still out. The consumer
// here holds freeListDepth chunks at a time, all the reader has, and parses
// them only then.
func TestNginxSourceBatchOwnership(t *testing.T) {
	logText := genNginxLog(3000, 83)
	input := func() io.Reader { return sizedReader{strings.NewReader(logText), 2000} }
	chunks := 0 // the reader waits for the last ones to come home, so the consumer must know them
	for lr := harvester.NewLineReader(input()); lr.Fill(); lr.Take() {
		chunks++
	}
	if chunks < 10*freeListDepth {
		t.Fatalf("%d chunks: too few to recycle the free list", chunks)
	}
	type held struct {
		bt  ingestBatch
		was string
	}
	out := make(chan held)
	total := make(chan int)
	go func() {
		n := 0
		var pending []held
		var sc scratch
		for seen := 1; seen <= chunks; seen++ {
			if pending = append(pending, <-out); len(pending) < freeListDepth && seen < chunks {
				continue
			}
			for _, h := range pending {
				if string(h.bt.raw.(*textChunk).text) != h.was {
					t.Errorf("a chunk of %d bytes changed between send and release", len(h.was))
				}
				n += len(h.bt.raw.decode(&sc, h.bt.home))
				h.bt.free()
			}
			pending = pending[:0]
		}
		total <- n
	}()
	got, err := readNginx(context.Background(), input(), 1, false, func(bt ingestBatch) error {
		out <- held{bt, string(bt.raw.(*textChunk).text)}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := <-total; n != 3000 || got.lines != 3000 {
		t.Errorf("consumer saw %d points, the reader collected %d lines; want 3000", n, got.lines)
	}
}

// TestNginxSourceFoldsInFileOrder: with one worker the batch path folds the
// records in file order, so on rewards that do not sum exactly the
// estimates are bit-for-bit those of folding line by line.
func TestNginxSourceFoldsInFileOrder(t *testing.T) {
	logText := messyNginxLog(2000, 85)
	entries := 0
	ref := newTestRegistry(t, 1)
	sc := bufio.NewScanner(strings.NewReader(logText))
	for sc.Scan() {
		e, err := harvester.ParseNginxLine(strings.TrimSpace(sc.Text()))
		if err != nil {
			continue
		}
		if dp, ok, err := harvester.EntryToTypedDatapoint(e, 1); ok && err == nil {
			ref.Fold(0, &dp)
			entries++
		}
	}
	reg := newTestRegistry(t, 1)
	d, err := New(Config{Workers: 1}, reg)
	if err != nil {
		t.Fatal(err)
	}
	d.AddSource(&NginxSource{R: sizedReader{strings.NewReader(logText), 4096}})
	if err := d.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "folds", func() bool { return d.ctr.folded.Load() == int64(entries) })
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Estimates(0.05), ref.Estimates(0.05); !reflect.DeepEqual(got, want) {
		t.Errorf("estimates differ from the line-by-line fold:\n got  %+v\n want %+v", got, want)
	}
}

// TestNginxSourceStrictAbortFoldsPrefix: a malformed line in the middle of
// a read fails a Strict source with that line's number, after exactly the
// records before it have been handed to the fold.
func TestNginxSourceStrictAbortFoldsPrefix(t *testing.T) {
	logText := genNginxLog(10, 73) + "\n" + "not an access line\n" + genNginxLog(5, 74)
	d, reg := startSourceDaemon(t, &NginxSource{R: strings.NewReader(logText), Strict: true})
	waitFor(t, 10*time.Second, "strict failure", func() bool { return len(d.SourceErrors()) == 1 })
	if err := d.SourceErrors()[0]; !strings.Contains(err.Error(), "line 12") {
		t.Errorf("strict error %q should name physical line 12", err)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := reg.TotalN(); n != 10 {
		t.Errorf("folded %d records, want the 10 before the bad line", n)
	}
	if l, p := d.ctr.lines.Load(), d.ctr.parseErrors.Load(); l != 11 || p != 0 {
		t.Errorf("lines/parse_errors = %d/%d, want 11/0", l, p)
	}
}

// TestNginxSourceFollowWaitsForNewline: in follow mode a line caught
// half-written is held back — not parsed as a torn line — and emitted once,
// when its newline lands.
func TestNginxSourceFollowWaitsForNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.log")
	lines := strings.SplitAfter(genNginxLog(3, 75), "\n")
	half := len(lines[1]) / 2
	if err := os.WriteFile(path, []byte(lines[0]+lines[1][:half]), 0o644); err != nil {
		t.Fatal(err)
	}
	d, reg := startSourceDaemon(t, &NginxSource{Path: path, Follow: true, Poll: time.Millisecond})
	defer d.Shutdown(context.Background())
	waitFor(t, 10*time.Second, "first line", func() bool { return reg.TotalN() == 1 })
	time.Sleep(20 * time.Millisecond) // twenty polls over the half line
	if l, p := d.ctr.lines.Load(), d.ctr.parseErrors.Load(); l != 1 || p != 0 {
		t.Fatalf("with half a line pending: lines/parse_errors = %d/%d, want 1/0", l, p)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(strings.TrimSuffix(lines[1][half:], "\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if l := d.ctr.lines.Load(); l != 1 {
		t.Fatalf("whole line without its newline: lines = %d, want 1", l)
	}
	if _, err := f.WriteString("\n" + lines[2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "completed lines", func() bool { return reg.TotalN() == 3 })
	if l, p := d.ctr.lines.Load(), d.ctr.parseErrors.Load(); l != 3 || p != 0 {
		t.Errorf("lines/parse_errors = %d/%d, want 3/0", l, p)
	}
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("source errors: %v", errs)
	}
}

// TestNginxSourceFollowDropsTornTailAtShutdown: what a followed log ends in
// at shutdown, short of a newline, is a line its writer has not finished. Cut
// inside its last field it still parses — prop=0.500000 as prop=0.5 here,
// and as easily prop=0.125000 as prop=0.1 — so it must not be read as the
// last line of the input, only left for the next start to read whole.
func TestNginxSourceFollowDropsTornTailAtShutdown(t *testing.T) {
	lines := strings.SplitAfter(genNginxLog(2, 77), "\n")
	torn := strings.TrimSuffix(lines[1], "00000\n")
	if !strings.HasSuffix(torn, "prop=0.5") {
		t.Fatalf("fixture: torn line ends %q", torn[len(torn)-12:])
	}
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte(lines[0]+torn), 0o644); err != nil {
		t.Fatal(err)
	}
	d, reg := startSourceDaemon(t, &NginxSource{Path: path, Follow: true, Poll: time.Millisecond})
	waitFor(t, 10*time.Second, "first line", func() bool { return reg.TotalN() == 1 })
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := reg.TotalN(); n != 1 {
		t.Errorf("folded %d records, want 1: the torn tail was read as a line", n)
	}
	if l, p := d.ctr.lines.Load(), d.ctr.parseErrors.Load(); l != 1 || p != 0 {
		t.Errorf("lines/parse_errors = %d/%d, want 1/0: the tail is not counted either", l, p)
	}
	if errs := d.SourceErrors(); len(errs) != 0 {
		t.Fatalf("source errors: %v", errs)
	}
}

// TestNginxSourceStrictAbortAcrossChunks: with the parse on the workers, a
// Strict source still stops at the malformed line — here in the third of many
// reads, with two workers free to take whatever is queued: the error names
// the line, the lines before it in its chunk and the chunks before it are
// folded, and nothing after it is.
func TestNginxSourceStrictAbortAcrossChunks(t *testing.T) {
	good := strings.SplitAfter(genNginxLog(200, 79), "\n")
	const bad = 12 // 1-based line of the malformed one
	before := strings.Join(good[:bad-1], "")
	logText := before + "not an access line\n" + strings.Join(good[bad-1:], "")
	const readSize = 600 // four or five lines a read
	if len(before) < 2*readSize || len(before)+20 > 3*readSize {
		t.Fatalf("fixture: line %d starts at byte %d, outside the third %d-byte read", bad, len(before), readSize)
	}
	d, reg := startSourceDaemon(t, &NginxSource{R: sizedReader{strings.NewReader(logText), readSize}, Strict: true})
	waitFor(t, 10*time.Second, "strict failure", func() bool { return len(d.SourceErrors()) == 1 })
	if err := d.SourceErrors()[0]; !strings.Contains(err.Error(), fmt.Sprintf("line %d:", bad)) {
		t.Errorf("strict error %q should name line %d", err, bad)
	}
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := reg.TotalN(); n != bad-1 {
		t.Errorf("folded %d records, want exactly the %d before the bad line", n, bad-1)
	}
	if l, p := d.ctr.lines.Load(), d.ctr.parseErrors.Load(); l != bad || p != 0 {
		t.Errorf("lines/parse_errors = %d/%d, want %d/0", l, p, bad)
	}
}
