package netlb

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/harvester"
)

// sprintfAccessLine is the fmt-based formatter appendAccessLine replaced,
// kept as the oracle for its bytes.
func sprintfAccessLine(now time.Time, r *http.Request, status int, bytes int64, rt time.Duration, a core.Action, prop float64, conns []int, reqType int) string {
	connsStr := make([]string, len(conns))
	for i, c := range conns {
		connsStr[i] = fmt.Sprint(c)
	}
	remote := r.RemoteAddr
	if remote == "" {
		remote = "-"
	}
	typeField := ""
	if reqType >= 0 {
		typeField = fmt.Sprintf(" type=%d", reqType)
	}
	return fmt.Sprintf("%s - - [%s] \"%s %s %s\" %d %d \"-\" \"%s\" rt=%.6f upstream=%d conns=%s prop=%.6f%s\n",
		remote,
		now.Format("02/Jan/2006:15:04:05 -0700"),
		r.Method, r.URL.RequestURI(), r.Proto,
		status, bytes,
		r.UserAgent(),
		rt.Seconds(), int(a), strings.Join(connsStr, "|"), prop, typeField)
}

func accessLogRequest(remote, method, uri, ua string) *http.Request {
	u, err := url.ParseRequestURI(uri)
	if err != nil {
		panic(err)
	}
	r := &http.Request{Method: method, URL: u, Proto: "HTTP/1.1", RemoteAddr: remote, Header: http.Header{}}
	if ua != "" {
		r.Header.Set("User-Agent", ua)
	}
	return r
}

// logFieldsOf is what the relay reads off the wire for r: the target in
// origin form, as r.URL.RequestURI renders it.
func logFieldsOf(r *http.Request) *logFields {
	return &logFields{remote: r.RemoteAddr, method: []byte(r.Method), target: []byte(r.URL.RequestURI()),
		proto: []byte(r.Proto), ua: []byte(r.UserAgent())}
}

// TestAccessLineGolden pins the access-log format byte for byte: it is the
// wire between the proxy and every harvester of its log.
func TestAccessLineGolden(t *testing.T) {
	now := time.Date(2026, time.July, 6, 10, 30, 0, 0, time.FixedZone("", -7*3600-1800))
	r := accessLogRequest("127.0.0.1:54321", "GET", "/type/1/api/x?q=1", "Go-http-client/1.1")
	got := string(appendAccessLine(nil, now, logFieldsOf(r), 200, 42, 12345678*time.Nanosecond, 1, 0.5, []int{3, 7}, 1))
	const want = `127.0.0.1:54321 - - [06/Jul/2026:10:30:00 -0730] "GET /type/1/api/x?q=1 HTTP/1.1" 200 42 "-" "Go-http-client/1.1" rt=0.012346 upstream=1 conns=3|7 prop=0.500000 type=1` + "\n"
	if got != want {
		t.Errorf("access line:\n got  %q\n want %q", got, want)
	}
}

// TestAccessLineMatchesSprintfAndParses: over 1, 2 and 8 upstreams, typed
// and untyped, the appended line is the fmt-rendered line, and the
// harvester's parser reads back what the proxy decided.
func TestAccessLineMatchesSprintfAndParses(t *testing.T) {
	now := time.Date(2026, time.December, 31, 23, 59, 59, 0, time.UTC)
	reqs := []*http.Request{
		accessLogRequest("127.0.0.1:54321", "GET", "/api/x?q=1", "Go-http-client/1.1"),
		accessLogRequest("", "POST", "/", ""),
		accessLogRequest("[::1]:9", "DELETE", "/a%20b", "agent with spaces/1.0 (x; y)"),
	}
	for _, k := range []int{1, 2, 8} {
		for _, reqType := range []int{-1, 0, 2} {
			for i, r := range reqs {
				conns := make([]int, k)
				for j := range conns {
					conns[j] = (7*j + 13*i) % 11
				}
				conns[k-1] = 1234567
				a := core.Action((i + 1) % k)
				status, bytes := 200+i, int64(i)*1e10
				rt := time.Duration(i*i) * 1234567 * time.Nanosecond
				prop := 1 / float64(k+i)
				got := string(appendAccessLine([]byte("kept:"), now, logFieldsOf(r), status, bytes, rt, a, prop, conns, reqType))
				want := "kept:" + sprintfAccessLine(now, r, status, bytes, rt, a, prop, conns, reqType)
				if got != want {
					t.Fatalf("k=%d type=%d req %d:\n got  %q\n want %q", k, reqType, i, got, want)
				}
				e, err := harvester.ParseNginxLine(strings.TrimSuffix(strings.TrimPrefix(got, "kept:"), "\n"))
				if err != nil {
					t.Fatalf("k=%d type=%d req %d: the parser rejects the proxy's line %q: %v", k, reqType, i, got, err)
				}
				wantRemote := r.RemoteAddr
				if wantRemote == "" {
					wantRemote = "-"
				}
				if e.Remote != wantRemote || e.Method != r.Method || e.Path != r.URL.RequestURI() || e.Proto != r.Proto ||
					e.UserAgent != r.UserAgent() || !e.Time.Equal(now) || e.Status != status || e.Bytes != bytes ||
					e.Upstream != int(a) || e.Type != reqType || fmt.Sprint(e.Conns) != fmt.Sprint(conns) ||
					fmt.Sprintf("%.6f", e.RequestTime) != fmt.Sprintf("%.6f", rt.Seconds()) ||
					fmt.Sprintf("%.6f", e.Propensity) != fmt.Sprintf("%.6f", prop) {
					t.Errorf("k=%d type=%d req %d: parsed %+v from %q", k, reqType, i, e, got)
				}
			}
		}
	}
}

// TestAccessLineEdgesThroughBatch takes the writer's %.6f to the ends of its
// range and reads the lines back on harvestd's path. The batch parser gives
// strconv's reading of the printed text, bit for bit: the six decimals are
// what is harvested, not the proxy's float. A propensity that prints as
// 0.000000 is a line with nothing to harvest — harvestd counts it rejected —
// not a datapoint with p = 0 and not a parse error.
func TestAccessLineEdgesThroughBatch(t *testing.T) {
	now := time.Date(2026, time.July, 6, 10, 30, 0, 0, time.UTC)
	r := accessLogRequest("127.0.0.1:54321", "GET", "/api/x", "Go-http-client/1.1")
	var batch harvester.NginxBatch
	for _, rt := range []struct {
		d    time.Duration
		text string
	}{{0, "0.000000"}, {time.Nanosecond, "0.000000"}, {time.Hour, "3600.000000"}} {
		for _, prop := range []struct {
			p    float64
			text string
		}{{1.0 / 3, "0.333333"}, {1.0 / 7, "0.142857"}, {1e-7, "0.000000"}} {
			line := appendAccessLine(nil, now, logFieldsOf(r), 200, 42, rt.d, 1, prop.p, []int{3, 7}, -1)
			if want := " rt=" + rt.text + " upstream=1 conns=3|7 prop=" + prop.text + "\n"; !strings.HasSuffix(string(line), want) {
				t.Fatalf("rt=%v prop=%v: line %q does not end in %q", rt.d, prop.p, line, want)
			}
			wantRT, _ := strconv.ParseFloat(rt.text, 64)
			wantProp, _ := strconv.ParseFloat(prop.text, 64)
			batch.Reset()
			ok, err := batch.Append(line[:len(line)-1], 1, 1)
			if err != nil || ok != (wantProp > 0) {
				t.Fatalf("line %q: ok=%v err=%v, want ok=%v and no error", line, ok, err, wantProp > 0)
			}
			if !ok {
				if len(batch.Points) != 0 {
					t.Errorf("line %q: a zero propensity was harvested: %+v", line, batch.Points)
				}
				continue
			}
			d := batch.Points[0]
			if math.Float64bits(d.Reward) != math.Float64bits(wantRT) || math.Float64bits(d.Propensity) != math.Float64bits(wantProp) || d.Action != 1 {
				t.Errorf("line %q harvested as reward %v propensity %v action %d, want %v, %v and 1",
					line, d.Reward, d.Propensity, d.Action, wantRT, wantProp)
			}
		}
	}
}

// TestAccessLineAllocs: building a line into a recycled buffer from the
// head's raw fields allocates nothing.
func TestAccessLineAllocs(t *testing.T) {
	now := time.Now()
	f := logFieldsOf(accessLogRequest("127.0.0.1:54321", "GET", "/api/x", "Go-http-client/1.1"))
	buf := make([]byte, 0, 512)
	conns := []int{3, 7, 1, 0, 2, 9, 4, 4}
	allocs := testing.AllocsPerRun(100, func() {
		buf = appendAccessLine(buf[:0], now, f, 200, 42, 12*time.Millisecond, 1, 0.125, conns, 2)
	})
	if allocs > 0 {
		t.Errorf("%v allocations per line, want none", allocs)
	}
}
