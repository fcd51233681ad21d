package harvester

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// benchNginxLines renders n access-log lines over k upstreams in netlb's
// format, a new timestamp every 500 lines.
func benchNginxLines(n, k int) [][]byte {
	r := stats.NewRand(5)
	lines := make([][]byte, n)
	for i := range lines {
		conns := make([]string, k)
		for j := range conns {
			conns[j] = strconv.Itoa(r.Intn(10))
		}
		lines[i] = []byte(fmt.Sprintf(`127.0.0.1:%d - - [06/Jul/2026:10:30:%02d +0000] "GET /api/x?q=%d HTTP/1.1" 200 42 "-" "Go-http-client/1.1" rt=%.6f upstream=%d conns=%s prop=%.6f`,
			40000+i, i/500%60, i, 0.001+0.01*r.Float64(), r.Intn(k), strings.Join(conns, "|"), 1/float64(k)))
	}
	return lines
}

// BenchmarkParseNginxLine measures one access-log line → one datapoint, on
// the compat API (ParseNginxLine + EntryToTypedDatapoint, what one-off
// callers and the loop benchmark's parse probe use) and on the batch path
// harvestd ingests through, at 2 and 8 upstreams; batch/k2/typed adds a
// type= field and folds typed contexts, batch/k2/foreign puts fields the
// proxy never writes ahead of its own. batch/malformed is the hostile log:
// every line fails, a third each with junk before the remote, rt=oops
// appended, and the line cut in half.
func BenchmarkParseNginxLine(b *testing.B) {
	b.Run("batch/malformed", func(b *testing.B) {
		lines := benchNginxLines(4096, 2)
		for i, l := range lines {
			switch i % 3 {
			case 0:
				lines[i] = append([]byte("junk here "), l...)
			case 1:
				lines[i] = append(l, " rt=oops"...)
			case 2:
				lines[i] = l[:len(l)/2]
			}
		}
		var batch NginxBatch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := batch.Append(lines[i&4095], 1, int64(i)); ok || err == nil {
				b.Fatal(ok, err)
			}
		}
	})
	for _, k := range []int{2, 8} {
		lines := benchNginxLines(4096, k)
		b.Run(fmt.Sprintf("compat/k%d", k), func(b *testing.B) {
			text := make([]string, len(lines))
			for i := range lines {
				text[i] = string(lines[i])
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := ParseNginxLine(text[i&4095])
				if err != nil {
					b.Fatal(err)
				}
				if _, ok, err := EntryToTypedDatapoint(e, 1); !ok || err != nil {
					b.Fatal(ok, err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch/k%d", k), func(b *testing.B) { benchBatch(b, lines, 1) })
	}
	// The proxy's lines with a type= field, folded into typed contexts; and
	// with fields the proxy never writes ahead of its own (nginx's
	// request_time= and upstream_*), which the key scan skips.
	lines := benchNginxLines(4096, 2)
	typed, foreign := make([][]byte, len(lines)), make([][]byte, len(lines))
	for i, l := range lines {
		typed[i] = fmt.Appendf(slices.Clip(l), " type=%d", i%3)
		ua := bytes.Index(l, []byte(`" rt=`)) + 1
		foreign[i] = slices.Concat(l[:ua], []byte(" request_time=0.004 upstream_addr=127.0.0.1:8081 upstream_status=200"), l[ua:])
	}
	b.Run("batch/k2/typed", func(b *testing.B) { benchBatch(b, typed, 3) })
	b.Run("batch/k2/foreign", func(b *testing.B) { benchBatch(b, foreign, 1) })
}

// benchBatch appends lines to one batch in turn, 512 to a batch; every line
// must yield a datapoint.
func benchBatch(b *testing.B, lines [][]byte, numTypes int) {
	var batch NginxBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&511 == 0 {
			batch.Reset()
		}
		if ok, err := batch.Append(lines[i&4095], numTypes, int64(i)); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}
