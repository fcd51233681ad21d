package harvestd

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/harvester"
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
		p.Context.Features = p.Context.Features.Clone()
		rows := make([]core.Vector, len(p.Context.ActionFeatures))
		for j, row := range p.Context.ActionFeatures {
			rows[j] = row.Clone()
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
func messyNginxLog(n int, seed int64) string {
	var b strings.Builder
	for i, line := range strings.Split(strings.TrimSpace(genNginxLog(n, seed)), "\n") {
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

// TestNginxSourceMatchesPerLineReference: however the input is cut into
// reads — a byte at a time, seven, about a line, or all at once — the batch
// read loop yields the datapoints, Seqs and counters of the per-line loop it
// replaced (Scanner, TrimSpace, ParseNginxLine, EntryToTypedDatapoint).
func TestNginxSourceMatchesPerLineReference(t *testing.T) {
	logText := messyNginxLog(700, 81)
	for _, numTypes := range []int{1, 2} {
		var want []core.Datapoint
		var wantTally nginxTally
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
		if numTypes == 1 && (wantTally.parseErrors < 50 || wantTally.rejected < 30 || len(want) < 500) {
			t.Fatalf("the input is not doing its job: %+v", wantTally)
		}

		for _, readSize := range []int{1, 7, 150, 64 * 1024} {
			d, err := New(Config{Workers: 1}, newTestRegistry(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			var got []core.Datapoint
			batches := 0
			err = ingestNginx(context.Background(), sizedReader{strings.NewReader(logText), readSize}, numTypes, false,
				func(pts []core.Datapoint, free func(), read nginxTally) error {
					if len(pts) > 0 {
						batches++
					}
					got = append(got, clonePoints(pts)...)
					d.sinkFor("t").tally(read)
					free()
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if l, p, r := d.ctr.lines.Load(), d.ctr.parseErrors.Load(), d.ctr.rejected.Load(); l != wantTally.lines || p != wantTally.parseErrors || r != wantTally.rejected {
				t.Errorf("types %d, %d-byte reads: counters lines/parse_errors/rejected = %d/%d/%d, want %+v", numTypes, readSize, l, p, r, wantTally)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("types %d, %d-byte reads: %d datapoints differ from the reference's %d", numTypes, readSize, len(got), len(want))
			}
			// One read, one batch: small reads cannot batch more than the
			// lines they complete, one big read takes the whole log.
			if readSize == 64*1024 && batches > len(logText)/readSize+2 {
				t.Errorf("64 KiB reads: %d batches for %d bytes", batches, len(logText))
			}
			if readSize <= 7 && batches != len(want) {
				t.Errorf("%d-byte reads: %d batches for %d harvested lines, want one each", readSize, batches, len(want))
			}
		}
	}
}

// TestNginxSourceBatchOwnership: a batch's points stay untouched from emit
// until its free runs, however far the source runs ahead — it must wait for
// a batch to come back rather than parse into one still out. The consumer
// here holds every batch until the source has no more to hand out.
func TestNginxSourceBatchOwnership(t *testing.T) {
	logText := genNginxLog(3000, 83)
	type held struct {
		pts, was []core.Datapoint
		free     func()
	}
	out := make(chan held)
	total := make(chan int)
	go func() {
		n := 0
		var pending []held
		release := func() {
			for _, h := range pending {
				if !reflect.DeepEqual(h.pts, h.was) {
					t.Errorf("a batch of %d points changed between emit and free", len(h.was))
				}
				n += len(h.pts)
				h.free()
			}
			pending = pending[:0]
		}
		for h := range out {
			if pending = append(pending, h); len(pending) == freeListDepth {
				release()
			}
		}
		release()
		total <- n
	}()
	err := ingestNginx(context.Background(), sizedReader{strings.NewReader(logText), 2000}, 1, false,
		func(pts []core.Datapoint, free func(), _ nginxTally) error {
			out <- held{pts, clonePoints(pts), free}
			return nil
		})
	close(out)
	if err != nil {
		t.Fatal(err)
	}
	if n := <-total; n != 3000 {
		t.Errorf("consumer saw %d points, want 3000", n)
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
