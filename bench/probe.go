package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harvestd"
	"repro/internal/harvester"
	"repro/internal/harvester/binrec"
)

// The probes time one layer at a time through its exported functions, on
// the workload's own block, from a single goroutine with nothing else
// running. Each pass over the block is one span; a metric is the median of
// probePasses passes.
const (
	probePasses = 3
	probeLines  = 1 << 15 // the text parser is slow enough that a prefix does
	probeCalls  = 50      // repetitions of a read-path call
)

// pass times f under a span, counting the heap allocations it made.
func (b *bench) pass(name string, f func()) (time.Duration, uint64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp := b.tr.Start(name, b.probes, nil)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	sp.End()
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs
}

// perItem runs f probePasses times and returns the median time and
// allocation count per item.
func (b *bench) perItem(name string, items int, f func()) (ns, allocs float64) {
	var nss, as []float64
	for i := 0; i < probePasses; i++ {
		d, a := b.pass(name, f)
		nss = append(nss, float64(d.Nanoseconds())/float64(items))
		as = append(as, float64(a)/float64(items))
	}
	return median(nss), median(as)
}

var sinkFloat float64 // keeps probe results alive

// probeBlock measures the per-record cost of each write-path layer.
func (b *bench) probeBlock() error {
	b.probes = b.tr.Start("probes", b.root, nil)
	defer b.probes.End()
	m, blk, n := b.m, b.blk, len(b.blk.pts)

	var decodeErr error
	var batch binrec.Batch
	decodeNS, _ := b.perItem("binrec.Decoder.Next", n, func() {
		dec := binrec.NewDecoder(io.MultiReader(bytes.NewReader(blk.binHdr), bytes.NewReader(blk.binSegs)))
		got := 0
		for {
			err := dec.Next(&batch)
			if err == io.EOF {
				break
			}
			if err != nil {
				decodeErr = err
				return
			}
			got += len(batch.Points)
		}
		if got != n {
			decodeErr = fmt.Errorf("decoded %d of %d records", got, n)
		}
	})
	if decodeErr != nil {
		return fmt.Errorf("%s: probe binrec: %w", b.wl.Name, decodeErr)
	}
	m["binrec.decode_ns_per_record"] = decodeNS
	m["binrec.bytes_per_record"] = float64(len(blk.binHdr)+len(blk.binSegs)) / float64(n)

	lines := strings.Split(strings.TrimSuffix(string(blk.lines), "\n"), "\n")
	if len(lines) > probeLines {
		lines = lines[:probeLines]
	}
	var parseErr error
	parseNS, parseAllocs := b.perItem("harvester.ParseNginxLine", len(lines), func() {
		for _, line := range lines {
			e, err := harvester.ParseNginxLine(line)
			if err != nil {
				parseErr = err
				return
			}
			dp, ok, err := harvester.EntryToTypedDatapoint(e, 1)
			if err != nil || !ok {
				parseErr = fmt.Errorf("line did not convert: %v", err)
				return
			}
			sinkFloat += dp.Reward
		}
	})
	if parseErr != nil {
		return fmt.Errorf("%s: probe parser: %w", b.wl.Name, parseErr)
	}
	m["harvester.parse_ns_per_line"] = parseNS
	m["harvester.parse_allocs_per_line"] = parseAllocs

	var invalid int
	m["core.validate_ns_per_record"], _ = b.perItem("Datapoint.Validate", n, func() {
		for i := range blk.pts {
			if blk.pts[i].Validate() != nil {
				invalid++
			}
		}
	})
	if invalid != 0 {
		return fmt.Errorf("%s: probe: %d generated records fail Validate", b.wl.Name, invalid)
	}

	evalNS, evalAllocs := b.perItem("core.ActionProb", n, func() {
		for i := range blk.pts {
			dp := &blk.pts[i]
			for _, p := range b.pols {
				sinkFloat += core.ActionProb(p.pol, &dp.Context, dp.Action)
			}
		}
	})
	m["policy.eval_ns_per_record"] = evalNS
	m["policy.eval_allocs_per_record"] = evalAllocs

	reg, err := newRegistry(b.pols, 2)
	if err != nil {
		return err
	}
	foldNS, _ := b.perItem("Registry.Fold", n, func() {
		for i := range blk.pts {
			reg.Fold(0, &blk.pts[i])
		}
	})
	m["harvestd.registry_fold_ns_per_record"] = foldNS
	m["harvestd.fold_self_ns_per_record"] = foldNS - evalNS

	// What the source pays per record before the queue: decode for a
	// binrec backlog, the line parser for a text one.
	m["harvestd.source_ns_per_record"] = decodeNS
	if b.wl.format == "nginx" {
		m["harvestd.source_ns_per_record"] = parseNS
	}
	return nil
}

// medianCall is the median duration of probeCalls calls of f, in µs.
func medianCall(f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < probeCalls; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, us(time.Since(t0)))
	}
	return median(ds), nil
}

// probeDaemon measures the read path on a daemon that has just folded a
// whole rep and is otherwise idle.
func (b *bench) probeDaemon(d *harvestd.Daemon) error {
	m := b.m
	var err error
	if m["harvestd.estimates_call_us"], err = medianCall(func() error {
		sinkFloat += float64(len(d.Estimates()))
		return nil
	}); err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	if m["harvestd.estimates_http_us"], err = medianCall(func() error {
		_, err := httpGet(client, d.URL()+"/estimates")
		return err
	}); err != nil {
		return err
	}

	snap := d.StateSnapshot()
	var wire bytes.Buffer
	if m["harvestd.snapshot_encode_us"], err = medianCall(func() error {
		wire.Reset()
		return harvestd.EncodeSnapshot(&wire, &snap)
	}); err != nil {
		return err
	}
	m["harvestd.snapshot_bytes"] = float64(wire.Len())
	if m["harvestd.snapshot_decode_us"], err = medianCall(func() error {
		_, err := harvestd.DecodeSnapshot(bytes.NewReader(wire.Bytes()))
		return err
	}); err != nil {
		return err
	}

	// Checkpoints stay out of the timed phases: the fsync is storage noise.
	var ckpt []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		if err := d.Checkpoint(); err != nil {
			return err
		}
		ckpt = append(ckpt, ms(time.Since(t0)))
	}
	m["harvestd.checkpoint_ms"] = median(ckpt)
	return nil
}

// watchHeap samples the heap in use every 100 ms until stop closes and
// reports the peak in MB. The harness's own buffers are in it; they are
// the same on every commit.
func watchHeap(stop <-chan struct{}, peakMB chan<- float64) {
	var peak uint64
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapInuse > peak {
			peak = ms.HeapInuse
		}
		select {
		case <-stop:
			peakMB <- float64(peak) / (1 << 20)
			return
		case <-t.C:
		}
	}
}
