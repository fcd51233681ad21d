// Command bench is the loop benchmark: it builds the served loop — proxy,
// access log, harvestd, aggregator, rollout controller — in one process
// from the packages' exported API, drives it with seeded inputs, checks
// the outputs against an oracle, and reports the metrics BENCHMARK.json
// declares. README.md has the metric glossary and the measurement rules.
//
//	bench -workload bin-fold -seed 1 -seconds 24 -trace 0   one run (what run.sh passes through)
//	bench -seed 1                                           all workloads, plain then traced
//	bench -compare a.jsonl b.jsonl                          noise-aware comparison of two result files
//	bench -ledger results.jsonl -commit abc1234             append one row to LEDGER.jsonl
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// options are one run's inputs.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // shrinks the generated block (smoke tests)
	outDir   string
}

// maxProcs is the sizing every workload assumes: one decode goroutine and
// two fold workers share two cores in the catch-up, the request chain and
// the harvest chain take one each in the live phase.
const maxProcs = 2

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceN int
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all, plain then traced)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", 24, "seconds of measurement per run")
	fs.IntVar(&traceN, "trace", 0, "1 = traced pass reporting the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "scale of the generated block")
	fs.StringVar(&o.outDir, "out", "out", "directory for results.jsonl, traces and scratch files")
	compare := fs.Bool("compare", false, "compare two result files: -compare a.jsonl b.jsonl")
	ledger := fs.String("ledger", "", "result file to summarise into one appended row of LEDGER.jsonl")
	commit := fs.String("commit", "unknown", "commit the -ledger row describes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceN != 0
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *ledger != "":
		if err := appendLedger(*ledger, "LEDGER.jsonl", *commit); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	runtime.GOMAXPROCS(maxProcs)
	runs := []options{o}
	if o.workload == "" {
		runs = runs[:0]
		for _, tr := range []bool{false, true} {
			for _, w := range workloads {
				r := o
				r.workload, r.trace = w.Name, tr
				runs = append(runs, r)
			}
		}
	}
	for _, r := range runs {
		res, err := runOne(r)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := report(r, res, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	options
	wl  *workload
	dir string // scratch files of this run, removed at the end

	blk     *block
	pols    []namedPolicy
	want    *oracle
	backlog string // the tailed backlog file (tailFile workloads)

	tr       *obs.Tracer // nil in a plain pass
	traceBuf bytes.Buffer
	root     *obs.Span
	probes   *obs.Span
	liveSpan *obs.Span

	m         map[string]float64
	attempted int64
	failed    int64
}

// setUp generates the inputs and constructs a daemon over them: everything
// that has to exist before the first timed rep.
func (b *bench) setUp() error {
	n := int(math.Round(float64(int(1)<<b.wl.blockLog2) * b.scale))
	if n < 64 {
		n = 64
	}
	var err error
	if b.blk, err = genBlock(b.seed, n, b.wl.upstreams); err != nil {
		return err
	}
	b.pols = b.wl.policies(b.seed)
	if b.wl.tailFile {
		b.backlog = filepath.Join(b.dir, "backlog.log")
		if err := os.WriteFile(b.backlog, bytes.Repeat(b.blk.lines, b.wl.replays), 0o644); err != nil {
			return err
		}
	}
	_, err = b.newDaemon(2, "")
	return err
}

const setUps = 21

func runOne(o options) (*result, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 || o.scale <= 0 {
		return nil, fmt.Errorf("-seconds and -scale must be positive")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	b := &bench{options: o, wl: wl, m: make(map[string]float64)}
	if b.dir, err = os.MkdirTemp(o.outDir, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)

	// Set-up runs several times and reports its median: one reading of a
	// 0.1 s step says little, and the first few pay for a heap that has
	// not grown yet.
	var setupS []float64
	for i := 0; i < setUps; i++ {
		runtime.GC() // the previous round's block is garbage; collect it outside the timing
		t0 := time.Now()
		if err := b.setUp(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	b.m["setup_s"] = median(setupS)
	if b.want, err = newOracle(b.blk.pts, b.pols); err != nil {
		return nil, err
	}

	budget := time.Duration(o.seconds * float64(time.Second) / 2)
	defs := endToEnd
	if !o.trace {
		if err := b.catchUp(budget); err != nil {
			return nil, err
		}
		if err := b.live(budget); err != nil {
			return nil, err
		}
	} else {
		defs = perLayer
		if err := b.tracedPass(budget); err != nil {
			return nil, err
		}
	}
	metrics, err := collect(defs, b.m)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wl.Name, err)
	}
	return &result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// tracedPass reports the per-layer metrics. Spans are recorded here, by
// the harness, around its calls into each layer, kept in memory and
// written to <out>/trace-<workload>.jsonl when the pass ends.
func (b *bench) tracedPass(liveBudget time.Duration) error {
	b.tr = obs.NewTracer(&b.traceBuf, nil)
	b.root = b.tr.Start("bench/"+b.wl.Name, nil, map[string]any{"seed": b.seed})
	heapStop, heapPeak := make(chan struct{}), make(chan float64, 1)
	go watchHeap(heapStop, heapPeak)
	err := b.tracedPhases(liveBudget)
	close(heapStop)
	b.m["bench.peak_heap_mb"] = <-heapPeak
	b.root.End()
	if err != nil {
		return err
	}
	if err := b.tr.Err(); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.outDir, "trace-"+b.wl.Name+".jsonl"), b.traceBuf.Bytes(), 0o644)
}

// tracedPlainReps is how many untraced catch-up reps the traced pass runs
// for its counters, the read latencies and bench.rep_spread.
const tracedPlainReps = 9

func (b *bench) tracedPhases(liveBudget time.Duration) error {
	if err := b.formatsAgree(); err != nil {
		return err
	}
	if err := b.probeBlock(); err != nil {
		return err
	}
	m := b.m
	rs, err := b.plainReps(tracedPlainReps, 0)
	if err != nil {
		return err
	}
	last, rawRate := rs.last, median(rs.raw)
	m["harvestd.raw_records_per_s"] = rawRate
	m["bench.ref_kernel_ms"] = median(rs.refMS)
	m["bench.rep_spread"] = iqrShare(rs.rates)
	m["harvestd.api_read_p50_ms"] = quantile(rs.readsMS, 0.5)
	m["harvestd.api_read_p99_ms"] = quantile(rs.readsMS, 0.99)
	m["harvestd.lines"] = float64(last.counters.Lines)
	m["harvestd.folded"] = float64(last.counters.Folded)
	m["harvestd.rejected"] = float64(last.counters.Rejected)
	m["harvestd.parse_errors"] = float64(last.counters.ParseErrors)
	m["loop.ingest_fail_ratio"] = 1 - float64(last.counters.Folded)/float64(last.records)

	traced := b.wl.rep()
	traced.traced, traced.probe = true, b.probeDaemon
	st, err := b.ingestRep(traced)
	if err != nil {
		return err
	}
	b.countIngest(st)
	recs := float64(st.records)
	m["bench.trace_overhead_ingest_ratio"] = rawRate / st.recordsPerS()
	m["harvestd.queue_depth_p50"] = quantile(st.queueDepth, 0.5)
	m["harvestd.queue_depth_max"] = quantile(st.queueDepth, 1)
	m["harvestd.lag_p50_ms"] = st.lagP50MS
	m["harvestd.lag_p99_ms"] = st.lagP99MS
	m["harvestd.cpu_ns_per_record"] = float64(st.cpu.Nanoseconds()) / recs
	m["harvestd.unattributed_ns_per_record"] = m["harvestd.cpu_ns_per_record"] -
		m["harvestd.source_ns_per_record"] - m["core.validate_ns_per_record"] - m["harvestd.registry_fold_ns_per_record"]
	m["harvestd.allocs_per_record"] = float64(st.mallocs) / recs
	m["harvestd.alloc_bytes_per_record"] = float64(st.allocBytes) / recs
	m["harvestd.gc_cycles"] = float64(st.gcCycles)

	single := b.wl.rep()
	single.workers = 1
	if st, err = b.ingestRep(single); err != nil {
		return err
	}
	b.countIngest(st)
	m["harvestd.workers1_records_per_s"] = st.recordsPerS()
	m["harvestd.worker_scaling"] = rawRate / st.recordsPerS()

	return b.liveTraced(liveBudget)
}

// runRecord is one line of results.jsonl: what -compare and -ledger read.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

// report prints every metric as "workload metric value unit", appends the
// run to <out>/results.jsonl, and ends with the result as one JSON line.
func report(o options, res *result, stdout io.Writer) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mv := res.Metrics[name]
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", o.workload, name, mv.Value, mv.Unit)
	}
	if err := appendJSONLine(filepath.Join(o.outDir, "results.jsonl"), runRecord{o.workload, o.seed, o.seconds, o.trace, res}); err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", last)
	return err
}

// appendJSONLine appends v to path as one line of JSON.
func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
