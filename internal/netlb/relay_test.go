package netlb

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hitCounter is an upstream that counts its requests and answers each with
// its path, or with its body when it has one.
type hitCounter struct{ hits atomic.Int64 }

func (h *hitCounter) serve(w http.ResponseWriter, r *http.Request) {
	h.hits.Add(1)
	body, _ := io.ReadAll(r.Body)
	if len(body) == 0 {
		body = []byte(r.URL.Path)
	}
	_, _ = w.Write(body)
}

// dialRaw opens a raw TCP connection to the proxy.
func dialRaw(t *testing.T, p *Proxy) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	_ = c.SetDeadline(time.Now().Add(5 * time.Second))
	return c, bufio.NewReader(c)
}

// readRawReply reads one reply off br and returns it with its body.
func readRawReply(t *testing.T, br *bufio.Reader, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// waitEOF fails unless the proxy closes the connection.
func waitEOF(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if b, err := br.ReadByte(); err != io.EOF {
		t.Errorf("read %q, %v after the reply; want the connection closed", b, err)
	}
}

// TestRelayRefusesLongHead: a head longer than http.DefaultMaxHeaderBytes
// gets 431 and the connection is closed.
func TestRelayRefusesLongHead(t *testing.T) {
	var up hitCounter
	p, _ := startPooledProxy(t, 0, up.serve, nil)
	c, br := dialRaw(t, p)
	go func() {
		head := "GET / HTTP/1.1\r\nHost: x\r\nX-Long: " + strings.Repeat("a", http.DefaultMaxHeaderBytes) + "\r\n\r\n"
		_, _ = io.WriteString(c, head)
	}()
	resp, _ := readRawReply(t, br, "GET")
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("status %d, want 431", resp.StatusCode)
	}
	waitEOF(t, br)
	if n := up.hits.Load(); n != 0 {
		t.Errorf("the upstream saw %d requests", n)
	}
}

// hostileHeads are requests net/http's server refuses or that the relay
// refuses beyond it; every one gets 400 and never reaches an upstream.
var hostileHeads = []struct{ name, head string }{
	{"length and chunked", "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"},
	{"two lengths", "POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 4\r\n\r\nabcd"},
	{"gzip coding", "POST / HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: gzip\r\n\r\n"},
	{"obs-fold", "GET / HTTP/1.1\r\nHost: x\r\nX-Folded: a\r\n b\r\n\r\n"},
	{"space before colon", "GET / HTTP/1.1\r\nHost: x\r\nX-Space : a\r\n\r\n"},
	{"NUL in a value", "GET / HTTP/1.1\r\nHost: x\r\nX-Nul: a\x00b\r\n\r\n"},
	{"no Host", "GET / HTTP/1.1\r\nX-Other: a\r\n\r\n"},
}

func TestRelayRefusesHostileHeads(t *testing.T) {
	var up hitCounter
	p, _ := startPooledProxy(t, 0, up.serve, nil)
	for _, h := range hostileHeads {
		c, br := dialRaw(t, p)
		if _, err := io.WriteString(c, h.head); err != nil {
			t.Fatal(err)
		}
		resp, _ := readRawReply(t, br, "GET")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", h.name, resp.StatusCode)
		}
		waitEOF(t, br)
	}
	if n := up.hits.Load(); n != 0 {
		t.Errorf("the upstream saw %d of the hostile requests", n)
	}
}

// TestRelayPipelinedRequests: two GETs sent at once on one connection are
// answered in order.
func TestRelayPipelinedRequests(t *testing.T) {
	var up hitCounter
	p, _ := startPooledProxy(t, 0, up.serve, nil)
	c, br := dialRaw(t, p)
	if _, err := io.WriteString(c, "GET /first HTTP/1.1\r\nHost: x\r\n\r\nGET /second HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"/first", "/second"} {
		if resp, body := readRawReply(t, br, "GET"); resp.StatusCode != http.StatusOK || body != want {
			t.Errorf("reply %d %q, want 200 %q", resp.StatusCode, body, want)
		}
	}
}

// TestRelayDechunksForHTTP10: an HTTP/1.0 client in front of a chunked
// upstream reply gets the plain body, then the connection closes.
func TestRelayDechunksForHTTP10(t *testing.T) {
	p, _ := startPooledProxy(t, 0, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, "part1")
		http.NewResponseController(w).Flush() // no length yet: chunked
		_, _ = io.WriteString(w, "part2")
	}, nil)
	c, br := dialRaw(t, p)
	if _, err := io.WriteString(c, "GET /c HTTP/1.0\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	head, body, _ := strings.Cut(string(raw), "\r\n\r\n")
	if !strings.HasPrefix(head, "HTTP/1.0 200 ") || strings.Contains(strings.ToLower(head), "chunked") || body != "part1part2" {
		t.Errorf("reply to an HTTP/1.0 client:\n%s", raw)
	}
}

// TestRelayExpectContinue: a POST with Expect: 100-continue gets 100
// Continue before it sends its body, then the body's echo.
func TestRelayExpectContinue(t *testing.T) {
	var up hitCounter
	p, _ := startPooledProxy(t, 0, up.serve, nil)
	c, br := dialRaw(t, p)
	if _, err := io.WriteString(c, "POST /e HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: 5\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil || line != "HTTP/1.1 100 Continue\r\n" {
		t.Fatalf("first line %q, %v; want 100 Continue", line, err)
	}
	if blank, _ := br.ReadString('\n'); blank != "\r\n" {
		t.Fatalf("100 Continue followed by %q", blank)
	}
	if _, err := io.WriteString(c, "hello"); err != nil {
		t.Fatal(err)
	}
	if resp, body := readRawReply(t, br, "POST"); resp.StatusCode != http.StatusOK || body != "hello" {
		t.Errorf("reply %d %q, want 200 %q", resp.StatusCode, body, "hello")
	}
}

// lineCounter is an access log that counts its lines.
type lineCounter struct {
	mu    sync.Mutex
	lines int
}

func (l *lineCounter) Write(b []byte) (int, error) {
	l.mu.Lock()
	l.lines += bytes.Count(b, []byte{'\n'})
	l.mu.Unlock()
	return len(b), nil
}

func (l *lineCounter) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lines
}

// TestProxyLogsBeforeReply: when a reply reaches its client, its access
// line is already written and its upstream released.
func TestProxyLogsBeforeReply(t *testing.T) {
	var up hitCounter
	var log lineCounter
	p, _ := startPooledProxy(t, 0, up.serve, &log)
	c := &http.Client{Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	for i := 1; i <= 200; i++ {
		req, err := http.NewRequest(http.MethodGet, p.URL()+"/r", nil)
		if err != nil {
			t.Fatal(err)
		}
		if status, _ := do(t, c, req); status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		if n := log.count(); n != i {
			t.Fatalf("reply %d reached the client with %d access lines written", i, n)
		}
		sum := 0
		for _, n := range p.Conns() {
			sum += n
		}
		if sum != 0 {
			t.Fatalf("reply %d reached the client with Conns %v", i, p.Conns())
		}
	}
}

// oracleHead is what net/http's server makes of a request head — accepted
// or not, the body's length (-1 chunked) and the target the old proxy
// logged and forwarded — with the relay's stricter rules on top: no
// obs-fold, not both Content-Length and Transfer-Encoding, and no CONNECT.
func oracleHead(in []byte) (ok bool, length int64, target string) {
	req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(in)))
	if err != nil || req.ProtoMajor != 1 || req.Method == http.MethodConnect {
		return false, 0, ""
	}
	for k, vs := range req.Header {
		if strings.ContainsAny(k, " \t") {
			return false, 0, ""
		}
		for _, v := range vs {
			if strings.ContainsFunc(v, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
				return false, 0, ""
			}
		}
	}
	// ReadRequest takes Host out of the header; the server checks it first.
	_, rest, _ := strings.Cut(string(in), "\n")
	var hosts int
	var sized, coded bool
	for {
		var line string
		line, rest, _ = strings.Cut(rest, "\n")
		if line = strings.TrimSuffix(line, "\r"); line == "" {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return false, 0, ""
		}
		name, value, _ := strings.Cut(line, ":")
		if strings.EqualFold(name, "Host") {
			const hostBytes = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ!$%&'()*+,-.:;=[]_~"
			if strings.Trim(strings.Trim(value, " \t"), hostBytes) != "" {
				return false, 0, ""
			}
			hosts++
		}
		sized = sized || strings.EqualFold(name, "Content-Length")
		coded = coded || strings.EqualFold(name, "Transfer-Encoding")
	}
	if sized && coded || req.ProtoMinor > 0 && hosts == 0 {
		return false, 0, ""
	}
	return true, req.ContentLength, req.URL.RequestURI()
}

// relayHead is the relay's own reading of the same bytes.
func relayHead(in []byte) (ok bool, length int64, target string) {
	h, err := readHead(bufio.NewReader(bytes.NewReader(in)))
	var q request
	if err != nil || parseRequest(h, &q) != 0 {
		return false, 0, ""
	}
	return true, q.length, string(q.target)
}

// FuzzRelayHead holds the relay's head parser to net/http's: for any bytes
// the two accept and refuse alike, frame the body alike, and read the same
// target in origin form.
func FuzzRelayHead(f *testing.F) {
	for _, h := range hostileHeads {
		f.Add([]byte(h.head))
	}
	for _, s := range []string{
		"GET / HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /a%20b?q=\"1\" HTTP/1.1\nHost: x\nUser-Agent: ua\n\n",
		"GET http://h/p?q HTTP/1.1\r\nHost: h\r\n\r\n",
		"OPTIONS * HTTP/1.0\r\n\r\n",
		"GET /{x} HTTP/1.0\r\nTransfer-Encoding: gzip\r\n\r\n",
		"POST /p HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: Chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"POST /p HTTP/1.1\r\nHost: x\r\nContent-Length: 0005\r\nContent-Length: 0005\r\n\r\nabcde",
		"CONNECT h:443 HTTP/1.1\r\nHost: h:443\r\n\r\n",
		"GET / HTTP/2.0\r\nHost: x\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\nX: a\r\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x y\r\n\r\n",
		"GET / HTTP/1.1\r\nHost: x\r\n\r",
		"GET / HTTP/1.1\r\nHost: x\r\nX-Long: " + strings.Repeat("a", 5000) + "\r\n\r\n", // past the read buffer
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		gotOK, gotLen, gotTarget := relayHead(in)
		wantOK, wantLen, wantTarget := oracleHead(in)
		if gotOK != wantOK || gotLen != wantLen || gotTarget != wantTarget {
			t.Errorf("%q: relay accepts=%v length=%d target %q, net/http accepts=%v length=%d target %q",
				in, gotOK, gotLen, gotTarget, wantOK, wantLen, wantTarget)
		}
	})
}

// rawUpstream answers every request on a hijacked connection with reply
// and closes it.
func rawUpstream(reply string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			return
		}
		_, _ = io.WriteString(c, reply)
		c.Close()
	}
}

// TestRelayReplyUntilClose: a reply framed by the upstream closing reaches
// the client whole, with Connection: close, and then the connection closes.
func TestRelayReplyUntilClose(t *testing.T) {
	p, _ := startPooledProxy(t, 0, rawUpstream("HTTP/1.1 200 OK\r\nX-Up: 1\r\n\r\nhello"), nil)
	c, br := dialRaw(t, p)
	if _, err := io.WriteString(c, "GET /u HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, body := readRawReply(t, br, "GET")
	if resp.StatusCode != http.StatusOK || body != "hello" || !resp.Close || resp.Header.Get("X-Up") != "1" {
		t.Errorf("reply %d %q close=%v header %v", resp.StatusCode, body, resp.Close, resp.Header)
	}
	waitEOF(t, br)
}

// TestRelayDoesNotSwitchProtocols: a 101 from the upstream is answered 502,
// and CONNECT is refused before it reaches one.
func TestRelayDoesNotSwitchProtocols(t *testing.T) {
	p, _ := startPooledProxy(t, 0, rawUpstream("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: x\r\n\r\n"), nil)
	for _, tc := range []struct {
		head string
		want int
	}{
		{"GET /ws HTTP/1.1\r\nHost: x\r\nConnection: Upgrade\r\nUpgrade: x\r\n\r\n", http.StatusBadGateway},
		{"CONNECT h:443 HTTP/1.1\r\nHost: h:443\r\n\r\n", http.StatusNotImplemented},
	} {
		c, br := dialRaw(t, p)
		if _, err := io.WriteString(c, tc.head); err != nil {
			t.Fatal(err)
		}
		if resp, _ := readRawReply(t, br, "GET"); resp.StatusCode != tc.want {
			t.Errorf("%q: status %d, want %d", tc.head, resp.StatusCode, tc.want)
		}
	}
}

// TestRelayHeadInPieces: a head that arrives a byte at a time is read
// whole, however its line endings fall across reads.
func TestRelayHeadInPieces(t *testing.T) {
	var up hitCounter
	p, _ := startPooledProxy(t, 0, up.serve, nil)
	c, br := dialRaw(t, p)
	for _, b := range []byte("GET /pieces HTTP/1.1\r\nHost: x\r\n\r\n") {
		if _, err := c.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body := readRawReply(t, br, "GET"); resp.StatusCode != http.StatusOK || body != "/pieces" {
		t.Errorf("reply %d %q, want 200 %q", resp.StatusCode, body, "/pieces")
	}
}
