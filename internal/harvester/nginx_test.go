package harvester

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netlb"
	"repro/internal/policy"
	"repro/internal/stats"
)

const sampleLine = `127.0.0.1:54321 - - [06/Jul/2026:10:30:00 +0000] "GET /api/x?q=1 HTTP/1.1" 200 42 "-" "Go-http-client/1.1" rt=0.012345 upstream=1 conns=3|7 prop=0.500000`

func TestParseNginxLine(t *testing.T) {
	e, err := ParseNginxLine(sampleLine)
	if err != nil {
		t.Fatal(err)
	}
	if e.Remote != "127.0.0.1:54321" {
		t.Errorf("remote = %q", e.Remote)
	}
	if e.Method != "GET" || e.Path != "/api/x?q=1" || e.Proto != "HTTP/1.1" {
		t.Errorf("request = %q %q %q", e.Method, e.Path, e.Proto)
	}
	if e.Status != 200 || e.Bytes != 42 {
		t.Errorf("status/bytes = %d/%d", e.Status, e.Bytes)
	}
	if e.RequestTime != 0.012345 {
		t.Errorf("rt = %v", e.RequestTime)
	}
	if e.Upstream != 1 {
		t.Errorf("upstream = %d", e.Upstream)
	}
	if len(e.Conns) != 2 || e.Conns[0] != 3 || e.Conns[1] != 7 {
		t.Errorf("conns = %v", e.Conns)
	}
	if e.Propensity != 0.5 {
		t.Errorf("prop = %v", e.Propensity)
	}
	if e.Time.Year() != 2026 || e.Time.Month() != time.July {
		t.Errorf("time = %v", e.Time)
	}
}

func TestParseNginxLineMalformed(t *testing.T) {
	cases := []string{
		"not a log line",
		`x - - [bad time] "GET / HTTP/1.1" 200 0 "-" "-"`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-" "-" rt=abc`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-" "-" upstream=one`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-" "-" conns=1|x`,
		`x - - [06/Jul/2026:10:30:00 +0000] "GET / HTTP/1.1" 200 0 "-" "-" prop=zero`,
	}
	for _, line := range cases {
		if _, err := ParseNginxLine(line); err == nil {
			t.Errorf("line %q should fail", line)
		}
	}
}

// TestParseNginxReusedEntry pins what parseNginx's partial reset relies on:
// nothing of the previous line survives in a reused entry. A field added to
// AccessEntry fails here until the full line sets it and, if the extras may
// omit it, parseNginx resets it.
func TestParseNginxReusedEntry(t *testing.T) {
	const full = sampleLine + " type=2"
	const bare = `[::1]:9 - - [07/Aug/2027:11:31:01 +0100] "PUT /y HTTP/2" 503 7 "-" "curl"`
	var e AccessEntry
	var memo timeMemo
	if err := parseNginx(full, &e, &memo); err != nil {
		t.Fatal(err)
	}
	for v, i := reflect.ValueOf(e), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("the full line leaves AccessEntry.%s zero: extend it", v.Type().Field(i).Name)
		}
	}
	if err := parseNginx(bare, &e, &memo); err != nil {
		t.Fatal(err)
	}
	fresh, err := ParseNginxLine(bare)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Conns) != 0 {
		t.Fatalf("conns = %v after a line without any", e.Conns)
	}
	if e.Conns = nil; !reflect.DeepEqual(&e, fresh) {
		t.Errorf("reused entry %+v, fresh parse %+v", e, *fresh)
	}
}

// TestReadDecimalProxyGrid holds the decimal reader to strconv on every
// value the proxy's %.6f can print below one, and on the ends of rt's range.
func TestReadDecimalProxyGrid(t *testing.T) {
	for i := 0; i < 1e6; i++ {
		checkNumber(t, fmt.Sprintf("0.%06d", i))
	}
	checkNumber(t, "1.000000")
	checkNumber(t, "3600.000000")
}

func TestScavengeNginxReportsLineNumbers(t *testing.T) {
	input := sampleLine + "\n\nbroken line\n"
	_, err := ScavengeNginx(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("err = %v, want line 3", err)
	}
	ok, err := ScavengeNginx(strings.NewReader(sampleLine + "\n" + sampleLine + "\n"))
	if err != nil || len(ok) != 2 {
		t.Errorf("clean log: %d entries, %v", len(ok), err)
	}
}

func TestNginxToDatasetSkipsFailures(t *testing.T) {
	entries, err := ScavengeNginx(strings.NewReader(strings.Join([]string{
		sampleLine,
		strings.Replace(sampleLine, " 200 ", " 502 ", 1),
		strings.Replace(sampleLine, "prop=0.500000", "prop=0.000000", 1),
	}, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	ds, skipped, err := NginxToDataset(entries)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 1 || skipped != 2 {
		t.Errorf("kept %d skipped %d, want 1/2", len(ds), skipped)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	d := ds[0]
	if d.Action != 1 || d.Reward != 0.012345 || d.Propensity != 0.5 {
		t.Errorf("datapoint = %+v", d)
	}
	if d.Context.NumActions != 2 || d.Context.Features[0] != 3 || d.Context.Features[1] != 7 {
		t.Errorf("context = %+v", d.Context)
	}
}

func TestNginxToDatasetInconsistentUpstream(t *testing.T) {
	line := strings.Replace(sampleLine, "upstream=1", "upstream=9", 1)
	entries, err := ScavengeNginx(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NginxToDataset(entries); err == nil {
		t.Error("upstream beyond conns length should fail")
	}
}

// TestEndToEndHarvestFromLiveProxy is the §3 pipeline against a real HTTP
// system: run traffic through the netlb proxy with a randomized policy,
// scavenge its access log, and verify the harvested dataset's propensities
// and rewards line up with reality.
func TestEndToEndHarvestFromLiveProxy(t *testing.T) {
	b0, err := netlb.StartBackend(0, 2*time.Millisecond, 300*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b0.Close()
	b1, err := netlb.StartBackend(1, 4*time.Millisecond, 300*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	defer b1.Close()

	var logBuf strings.Builder
	proxy, err := netlb.NewProxy(
		[]string{b0.Addr(), b1.Addr()},
		policy.UniformRandom{R: stats.NewRand(1)},
		stats.NewRand(2),
		&logBuf,
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.Start(); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const n = 60
	for i := 0; i < n; i++ {
		resp, err := http.Get(proxy.URL() + "/harvest-me")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	entries, err := ScavengeNginx(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	ds, skipped, err := NginxToDataset(entries)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(ds) != n {
		t.Fatalf("harvested %d (skipped %d), want %d", len(ds), skipped, n)
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	slow, fast := 0.0, 0.0
	nSlow, nFast := 0, 0
	for i := range ds {
		if ds[i].Propensity != 0.5 {
			t.Fatalf("propensity = %v", ds[i].Propensity)
		}
		if ds[i].Reward <= 0 {
			t.Fatalf("request time = %v", ds[i].Reward)
		}
		if ds[i].Action == 0 {
			fast += ds[i].Reward
			nFast++
		} else {
			slow += ds[i].Reward
			nSlow++
		}
	}
	if nFast == 0 || nSlow == 0 {
		t.Fatal("random routing should hit both upstreams")
	}
	// Backend 1 is configured 2ms slower; harvested rewards must show it.
	if slow/float64(nSlow) <= fast/float64(nFast) {
		t.Errorf("harvested mean latencies: upstream1 %v should exceed upstream0 %v",
			slow/float64(nSlow), fast/float64(nFast))
	}
}

// TestScavengeNginxOverLimitLine: a line longer than the repo-wide
// core.MaxRecordBytes record bound is an explicit error (bufio.ErrTooLong
// surfaced), never a silent skip.
func TestScavengeNginxOverLimitLine(t *testing.T) {
	line := strings.Repeat("a", core.MaxRecordBytes+1) + "\n"
	if _, err := ScavengeNginx(strings.NewReader(line)); err == nil {
		t.Fatal("want error for over-limit access-log line, got nil")
	} else if !strings.Contains(err.Error(), "token too long") {
		t.Errorf("error %q should name the scanner limit", err)
	}
}

// TestNginxBatchMatchesCompatPath: a batch built line by line holds exactly
// the datapoints ParseNginxLine + EntryToTypedDatapoint give, typed and
// untyped, across lines that harvest, are skipped, and fail — and holds them
// intact while later lines reuse the scratch entry and grow the arena.
func TestNginxBatchMatchesCompatPath(t *testing.T) {
	var lines []string
	for i, raw := range benchNginxLines(600, 5) {
		line := string(raw) + " type=" + strconv.Itoa(i%4)
		switch i % 50 {
		case 7:
			line = strings.Replace(line, " 200 ", " 503 ", 1)
		case 19:
			line = strings.Replace(line, "upstream=", "upstream=1", 1) // ≥ 10: beyond conns
		case 33:
			line = "garbage " + line
		}
		lines = append(lines, line)
	}
	for _, numTypes := range []int{1, 3} {
		var want core.Dataset
		var b NginxBatch
		for i, line := range lines {
			seq := int64(i + 1)
			var wantOK bool
			e, wantErr := ParseNginxLine(line)
			if wantErr == nil {
				var d core.Datapoint
				if d, wantOK, wantErr = EntryToTypedDatapoint(e, numTypes); wantOK {
					d.Seq = seq
					want = append(want, d)
				}
			}
			ok, err := b.Append([]byte(line), numTypes, seq)
			if ok != wantOK || (err == nil) != (wantErr == nil) {
				t.Fatalf("types %d line %d: batch ok=%v err=%v, compat ok=%v err=%v", numTypes, i, ok, err, wantOK, wantErr)
			}
		}
		if len(want) < 400 {
			t.Fatalf("types %d: only %d of %d lines harvest; the input is not doing its job", numTypes, len(want), len(lines))
		}
		if !reflect.DeepEqual(core.Dataset(b.Points), want) {
			t.Errorf("types %d: the batch's %d points differ from the compat path's %d", numTypes, len(b.Points), len(want))
		}
	}
}

// TestNginxBatchSteadyStateAllocs: once a batch has been through one round,
// parsing the same shape of input into it again allocates nothing.
func TestNginxBatchSteadyStateAllocs(t *testing.T) {
	for _, k := range []int{2, 8} {
		lines := benchNginxLines(400, k)
		var b NginxBatch
		round := func() {
			b.Reset()
			for i, line := range lines {
				if ok, err := b.Append(line, 1, int64(i)); !ok || err != nil {
					t.Fatal(ok, err)
				}
			}
		}
		round()
		if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
			t.Errorf("k=%d: %v allocations per %d-line round, want 0", k, allocs, len(lines))
		}
	}
}
