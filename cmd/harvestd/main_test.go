package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harvester/binrec"
	"repro/internal/lbsim"
	"repro/internal/ope"
	"repro/internal/stats"
)

// writeTestLogs materializes one nginx access log and one binrec record file.
func writeTestLogs(t *testing.T, dir string) (nginxPath, binPath string, total int64) {
	t.Helper()
	r := stats.NewRand(7)
	var nb strings.Builder
	const nNginx = 200
	for i := 0; i < nNginx; i++ {
		conns := []int{r.Intn(8), r.Intn(8)}
		up := r.Intn(2)
		rt := 0.002 + 0.0005*float64(conns[up]) + 0.001*r.Float64()
		fmt.Fprintf(&nb,
			"127.0.0.1:%d - - [06/Jul/2026:10:30:00 +0000] \"GET /r/%d HTTP/1.1\" 200 42 \"-\" \"t\" rt=%.6f upstream=%d conns=%d|%d prop=0.500000\n",
			1000+i, i, rt, up, conns[0], conns[1])
	}
	nginxPath = filepath.Join(dir, "access.log")
	if err := os.WriteFile(nginxPath, []byte(nb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	const nBin = 300
	ds := make(core.Dataset, nBin)
	for i := range ds {
		conns := []int{r.Intn(8), r.Intn(8)}
		a := core.Action(r.Intn(2))
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     a,
			Reward:     0.002 + 0.001*float64(conns[a]) + 0.001*r.Float64(),
			Propensity: 0.5,
		}
	}
	binPath = filepath.Join(dir, "dataset.bin")
	writeBinFile(t, binPath, ds, 0)
	return nginxPath, binPath, nNginx + nBin
}

// writeBinFile writes ds to path as one binrec stream; segBytes > 0 lowers
// the segment-seal threshold so the file spans several segments.
func writeBinFile(t *testing.T, path string, ds core.Dataset, segBytes int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := binrec.NewEncoder(f)
	if err != nil {
		t.Fatal(err)
	}
	if segBytes > 0 {
		enc.SegmentBytes = segBytes
	}
	for i := range ds {
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
}

// startRun launches run() as main would, returning the API base URL and a
// channel carrying its exit error after ctx is cancelled.
func startRun(t *testing.T, ctx context.Context, args []string) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, io.Discard, ready) }()
	select {
	case url := <-ready:
		return url, errc
	case err := <-errc:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for startup")
	}
	return "", nil
}

// fetchEstimates polls /estimates until every policy reports wantN samples.
func fetchEstimates(t *testing.T, base string, wantN int64) []ope.PolicyEstimate {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last []ope.PolicyEstimate
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/estimates")
		if err == nil {
			var ests []ope.PolicyEstimate
			if json.NewDecoder(resp.Body).Decode(&ests) == nil {
				last = ests
			}
			resp.Body.Close()
			done := len(last) > 0
			for _, pe := range last {
				if pe.N != wantN {
					done = false
				}
			}
			if done {
				return last
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("estimates never reached n=%d: %+v", wantN, last)
	return nil
}

// TestRunResumeAfterRestart is the binary's lifecycle acceptance test: a
// daemon ingests an nginx log and a binrec file concurrently, terminates
// on signal (context cancellation — exactly what signal.NotifyContext
// delivers on SIGTERM) writing a checkpoint, and a restarted daemon reports
// identical estimator state (n, means, intervals) from that checkpoint.
func TestRunResumeAfterRestart(t *testing.T) {
	dir := t.TempDir()
	nginxPath, binPath, total := writeTestLogs(t, dir)
	ckpt := filepath.Join(dir, "state.json")
	common := []string{
		"-addr", "127.0.0.1:0",
		"-checkpoint", ckpt,
		"-policies", "leastloaded,constant:0,constant:1",
		"-workers", "2",
	}

	ctx1, cancel1 := context.WithCancel(context.Background())
	url1, errc1 := startRun(t, ctx1, append([]string{
		"-nginx", nginxPath, "-bin", binPath,
	}, common...))
	before := fetchEstimates(t, url1, total)
	cancel1() // SIGTERM
	if err := <-errc1; err != nil {
		t.Fatalf("first run exited: %v", err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint after shutdown: %v", err)
	}

	// Restart with no sources: everything it knows came from the checkpoint.
	ctx2, cancel2 := context.WithCancel(context.Background())
	url2, errc2 := startRun(t, ctx2, common)
	after := fetchEstimates(t, url2, total)
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatalf("second run exited: %v", err)
	}

	if !reflect.DeepEqual(before, after) {
		t.Errorf("state not identical across restart:\nbefore %+v\nafter  %+v", before, after)
	}
}

func TestRunBadFlags(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"-policies", "martian"},
		{"-policies", "constant:x"},
		{"-policies", ""},
		{"-addr", "256.0.0.1:bad"},
		{"positional"},
	} {
		if err := run(ctx, args, io.Discard, nil); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestRunDebugHandlersGated pins the -debug-addr contract: with the flag
// unset (the default) the API server exposes no pprof/expvar handlers; with
// it set they appear on their own listener, never on the API address.
func TestRunDebugHandlersGated(t *testing.T) {
	status := func(url string) int {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Off by default: the debug paths 404 on the API server.
	ctx1, cancel1 := context.WithCancel(context.Background())
	url1, errc1 := startRun(t, ctx1, []string{
		"-addr", "127.0.0.1:0", "-policies", "constant:0",
	})
	for _, p := range []string{"/debug/pprof/", "/debug/vars"} {
		if code := status(url1 + p); code != http.StatusNotFound {
			t.Errorf("GET %s without -debug-addr = %d, want 404", p, code)
		}
	}
	cancel1()
	if err := <-errc1; err != nil {
		t.Fatalf("run exited: %v", err)
	}

	// Opted in: the handlers serve on the debug listener, and the API
	// server still refuses them.
	var out syncBuffer
	ready := make(chan string, 1)
	errc2 := make(chan error, 1)
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() {
		errc2 <- run(ctx2, []string{
			"-addr", "127.0.0.1:0", "-policies", "constant:0",
			"-debug-addr", "127.0.0.1:0",
		}, &out, ready)
	}()
	var url2 string
	select {
	case url2 = <-ready:
	case err := <-errc2:
		t.Fatalf("run exited before ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("timed out waiting for startup")
	}
	var debugBase string
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "debug (pprof/expvar)") {
			i := strings.Index(line, "http://")
			debugBase = strings.TrimSuffix(strings.TrimSpace(line[i:]), "/debug/pprof/")
		}
	}
	if debugBase == "" {
		t.Fatalf("no debug line in output:\n%s", out.String())
	}
	for _, p := range []string{"/debug/pprof/", "/debug/vars"} {
		if code := status(debugBase + p); code != http.StatusOK {
			t.Errorf("GET %s on debug listener = %d, want 200", p, code)
		}
		if code := status(url2 + p); code != http.StatusNotFound {
			t.Errorf("GET %s on API server = %d, want 404", p, code)
		}
	}
	cancel2()
	if err := <-errc2; err != nil {
		t.Fatalf("run exited: %v", err)
	}
}

// syncBuffer makes run's stdout writer safe to read while daemon goroutines
// may still be logging to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestRunMissingSourceStillServes(t *testing.T) {
	// A missing log file fails that source, not the daemon.
	ctx, cancel := context.WithCancel(context.Background())
	url, errc := startRun(t, ctx, []string{
		"-addr", "127.0.0.1:0",
		"-nginx", filepath.Join(t.TempDir(), "absent.log"),
		"-policies", "constant:0",
	})
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz = %d", resp.StatusCode)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run exited: %v", err)
	}
}

// TestRunBinSource drives the -bin flag end to end: a binrec file written
// by the codec is ingested through the batched binary path and every
// candidate reports the full record count.
func TestRunBinSource(t *testing.T) {
	dir := t.TempDir()
	r := stats.NewRand(9)
	const n = 250
	ds := make(core.Dataset, n)
	for i := range ds {
		conns := []int{r.Intn(8), r.Intn(8)}
		a := core.Action(r.Intn(2))
		ds[i] = core.Datapoint{
			Context:    lbsim.BuildContext(conns, 0, 1),
			Action:     a,
			Reward:     0.002 + 0.001*float64(conns[a]) + 0.001*r.Float64(),
			Propensity: 0.5,
			Seq:        int64(i),
		}
	}
	binPath := filepath.Join(dir, "records.bin")
	writeBinFile(t, binPath, ds, 1024)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errc := startRun(t, ctx, []string{
		"-addr", "127.0.0.1:0", "-bin", binPath,
		"-policies", "uniform,leastloaded,constant:0",
	})
	ests := fetchEstimates(t, base, n)
	for _, pe := range ests {
		if pe.N != n {
			t.Errorf("%s folded %d records, want %d", pe.Policy, pe.N, n)
		}
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("run: %v", err)
	}
}
