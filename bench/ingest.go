package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/harvestd"
	"repro/internal/obs"
)

// repOpts selects the variant of one catch-up rep. The zero value plus
// format and replays is the plain timed rep.
type repOpts struct {
	format   string // "bin" or "nginx"
	replays  int
	tailFile bool // read the backlog file in follow mode instead of memory
	workers  int  // 0 = the standard two
	traced   bool // sample the queue, account CPU and allocations
	// probe runs against the still-running daemon once everything is
	// folded (per-layer read-path probes); nil for none.
	probe func(d *harvestd.Daemon) error
}

// rep is the workload's plain timed rep.
func (w *workload) rep() repOpts {
	return repOpts{format: w.format, replays: w.replays, tailFile: w.tailFile}
}

// repStats is what one catch-up rep measured.
type repStats struct {
	records   int64 // offered
	counters  harvestd.SnapshotCounters
	wall      time.Duration // Daemon.Start until every record is folded
	readsMS   []float64     // API read latencies from their scheduled send time; +Inf = failed
	estimates []byte        // final GET /estimates body

	// traced reps only
	queueDepth []float64
	lagP50MS   float64
	lagP99MS   float64
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
}

func (s *repStats) recordsPerS() float64 { return float64(s.records) / s.wall.Seconds() }

const (
	readEvery   = 20 * time.Millisecond
	sampleEvery = 5 * time.Millisecond
	repTimeout  = 120 * time.Second
)

func repeat(b []byte, n int) io.Reader {
	rs := make([]io.Reader, n)
	for i := range rs {
		rs[i] = bytes.NewReader(b)
	}
	return io.MultiReader(rs...)
}

func (b *bench) source(o repOpts) harvestd.Source {
	switch {
	case o.tailFile:
		return &harvestd.NginxSource{Path: b.backlog, Follow: true, Poll: time.Millisecond}
	case o.format == "bin":
		return &harvestd.BinSource{R: io.MultiReader(bytes.NewReader(b.blk.binHdr), repeat(b.blk.binSegs, o.replays))}
	default:
		return &harvestd.NginxSource{R: repeat(b.blk.lines, o.replays)}
	}
}

// newDaemon builds an unstarted daemon over a fresh registry of the
// workload's policies, API on a free port.
func (b *bench) newDaemon(workers int, checkpoint string) (*harvestd.Daemon, error) {
	reg, err := newRegistry(b.pols, workers)
	if err != nil {
		return nil, err
	}
	return harvestd.New(harvestd.Config{
		Workers:            workers,
		Clip:               clip,
		Addr:               "127.0.0.1:0",
		ShardID:            "shard-0",
		CheckpointPath:     checkpoint,
		CheckpointInterval: time.Hour, // only explicit Checkpoint calls write
	}, reg)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ingestRep runs one catch-up: a fresh daemon folds the backlog as fast as
// it can while a reader GETs /estimates and /snapshot alternately on a
// fixed 20 ms schedule. It checks the oracle before returning.
func (b *bench) ingestRep(o repOpts) (*repStats, error) {
	if o.workers == 0 {
		o.workers = 2
	}
	checkpoint := ""
	if o.probe != nil {
		checkpoint = filepath.Join(b.dir, "harvestd.ckpt")
	}
	d, err := b.newDaemon(o.workers, checkpoint)
	if err != nil {
		return nil, err
	}
	d.AddSource(b.source(o))

	sp := b.tr.Start("rep", b.root, map[string]any{"format": o.format, "workers": o.workers, "traced": o.traced})
	defer sp.End()
	st, err := b.driveRep(d, o, sp)
	if serr := d.Shutdown(context.Background()); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	// Read after the drain: a worker bumps the folded counter after the
	// registry has the record, so the registry can run one ahead of it.
	st.counters = d.StateSnapshot().Counters
	return st, nil
}

// driveRep starts d and measures it until every record is folded, then
// checks the oracle and runs the probe; the caller shuts d down.
func (b *bench) driveRep(d *harvestd.Daemon, o repOpts, sp *obs.Span) (*repStats, error) {
	st := &repStats{records: int64(len(b.blk.pts)) * int64(o.replays)}
	run := b.tr.Start("harvestd.run", sp, nil)
	var ms0 runtime.MemStats
	var cpu0 time.Duration
	if o.traced {
		runtime.ReadMemStats(&ms0)
		cpu0 = cpuTime()
	}
	t0 := time.Now()
	if err := d.Start(context.Background()); err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	var sides sync.WaitGroup
	sides.Add(1)
	go func() {
		defer sides.Done()
		st.readsMS = readAPI(d.URL(), t0, stop)
	}()
	if o.traced {
		sides.Add(1)
		go func() {
			defer sides.Done()
			st.queueDepth = sampleQueue(d, stop)
		}()
	}

	// Done when every policy has every record. TotalN reads the first
	// policy only, and a worker folds a record into the policies one by
	// one, so the others are asked once the first is complete.
	reg := d.Registry()
	done := func() bool {
		if reg.TotalN() < st.records {
			return false
		}
		for _, pe := range d.Estimates() {
			if pe.N < st.records {
				return false
			}
		}
		return true
	}
	var waitErr error
	for !done() {
		if time.Since(t0) > repTimeout {
			waitErr = fmt.Errorf("%s: folded %d of %d records in %s", b.wl.Name, reg.TotalN(), st.records, repTimeout)
			break
		}
		if errs := d.SourceErrors(); len(errs) > 0 {
			waitErr = fmt.Errorf("%s: source failed: %w", b.wl.Name, errs[0])
			break
		}
		time.Sleep(time.Millisecond)
	}
	st.wall = time.Since(t0)
	close(stop)
	sides.Wait()
	run.End()
	if waitErr != nil {
		return nil, waitErr
	}
	if o.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		st.cpu = cpuTime() - cpu0
		st.mallocs = ms1.Mallocs - ms0.Mallocs
		st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		st.gcCycles = ms1.NumGC - ms0.NumGC
		for _, sf := range d.FreshnessNow().Sources {
			st.lagP50MS = math.Max(st.lagP50MS, sf.LagP50Seconds*1e3)
			st.lagP99MS = math.Max(st.lagP99MS, sf.LagP99Seconds*1e3)
		}
	}

	var err error
	if st.estimates, err = httpGet(http.DefaultClient, d.URL()+"/estimates"); err != nil {
		return nil, err
	}
	if err := b.want.check(d.Estimates(), st.records); err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", b.wl.Name, err)
	}
	if o.probe != nil {
		if err := o.probe(d); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func httpGet(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// readAPI is the open-loop reader: read i is due at t0 + i·20ms, and its
// latency runs from that due time, so a read delayed by the one before it
// counts the delay. One connection.
func readAPI(base string, t0 time.Time, stop <-chan struct{}) []float64 {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	paths := [2]string{"/estimates", "/snapshot"}
	var lat []float64
	timer := time.NewTimer(0)
	defer timer.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return lat
		case <-timer.C:
		}
		due := t0.Add(time.Duration(i) * readEvery)
		if _, err := httpGet(client, base+paths[i%2]); err != nil {
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, ms(time.Since(due)))
		}
		timer.Reset(time.Until(due.Add(readEvery)))
	}
}

// sampleQueue polls the daemon's own watermark report for the queue depth.
func sampleQueue(d *harvestd.Daemon, stop <-chan struct{}) []float64 {
	var depth []float64
	t := time.NewTicker(sampleEvery)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return depth
		case <-t.C:
			depth = append(depth, float64(d.FreshnessNow().QueueDepth))
		}
	}
}

// repSeries is a sequence of plain catch-up reps, each with the reference
// kernel timed before and after it.
type repSeries struct {
	rates   []float64 // records/s, scaled by the machine's slowness during the rep
	raw     []float64 // records/s as the wall clock read them
	refMS   []float64 // reference-kernel timings
	readsMS []float64 // every rep's API read latencies
	last    *repStats
}

// plainReps runs timed catch-up reps until the budget is spent, minReps at
// least. Reps are short and many: the rate of one rep depends on how the
// scheduler happened to interleave the source and the two workers (it
// swings ±15 % rep to rep on bin-fold), so the median needs a few dozen.
func (b *bench) plainReps(minReps int, budget time.Duration) (*repSeries, error) {
	o := b.wl.rep()
	rs := &repSeries{}
	start := time.Now()
	before := refKernel()
	rs.refMS = append(rs.refMS, ms(before))
	for {
		st, err := b.ingestRep(o)
		if err != nil {
			return nil, err
		}
		b.countIngest(st)
		after := refKernel()
		rs.refMS = append(rs.refMS, ms(after))
		rs.raw = append(rs.raw, st.recordsPerS())
		rs.rates = append(rs.rates, st.recordsPerS()*machineSlowness(before, after))
		rs.readsMS = append(rs.readsMS, st.readsMS...)
		rs.last = st
		before = after
		if len(rs.rates) >= minReps && time.Since(start)+st.wall+after > budget {
			return rs, nil
		}
	}
}

// catchUp is the first phase of a plain run: a discarded warm-up that also
// checks the two encodings fold to the same bytes, then the timed reps.
func (b *bench) catchUp(budget time.Duration) error {
	if err := b.formatsAgree(); err != nil {
		return err
	}
	rs, err := b.plainReps(3, budget)
	if err != nil {
		return err
	}
	b.m["ingest_records_per_s"] = median(rs.rates)
	return nil
}

// countIngest books one rep's records into attempted/failed: anything
// offered and not folded failed, and so did every API read that errored.
func (b *bench) countIngest(st *repStats) {
	b.attempted += st.records + int64(len(st.readsMS))
	b.fail(st.records-st.counters.Folded, "records offered but not folded")
	var lost int64
	for _, l := range st.readsMS {
		if math.IsInf(l, 1) {
			lost++
		}
	}
	b.fail(lost, "API reads failed")
}

// fail books n failed operations and says which on standard error.
func (b *bench) fail(n int64, what string) {
	if n != 0 {
		b.failed += n
		fmt.Fprintf(os.Stderr, "bench: %s: %d %s\n", b.wl.Name, n, what)
	}
}

// formatsAgree folds the block once as binrec and once as access-log text
// through fresh daemons and requires byte-identical /estimates: the records
// are dyadic, so neither the encoding nor the fold order may show.
func (b *bench) formatsAgree() error {
	bin, err := b.ingestRep(repOpts{format: "bin", replays: 1})
	if err != nil {
		return err
	}
	text, err := b.ingestRep(repOpts{format: "nginx", replays: 1})
	if err != nil {
		return err
	}
	if !bytes.Equal(bin.estimates, text.estimates) {
		return fmt.Errorf("%s: oracle: /estimates differs between the binrec and the access-log rendering of the same records", b.wl.Name)
	}
	return nil
}
