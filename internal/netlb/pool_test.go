package netlb

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/stats"
)

// connLog records the last state of every connection an upstream accepted.
type connLog struct {
	mu    sync.Mutex
	state map[net.Conn]http.ConnState
}

func (l *connLog) hook(c net.Conn, s http.ConnState) {
	l.mu.Lock()
	l.state[c] = s
	l.mu.Unlock()
}

// counts returns how many connections the upstream accepted and how many of
// them are closed.
func (l *connLog) counts() (total, closed int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.state {
		if s == http.StateClosed || s == http.StateHijacked {
			closed++
		}
	}
	return len(l.state), closed
}

// waitClosed polls until at least want of the upstream's connections are
// closed, or fails after a second.
func (l *connLog) waitClosed(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
		total, closed := l.counts()
		if closed >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d upstream connections closed, want %d", closed, total, want)
		}
	}
}

// startPooledProxy serves h as one upstream with the given idle timeout and
// puts a proxy in front of it that routes everything there.
func startPooledProxy(t *testing.T, idle time.Duration, h http.HandlerFunc, logW io.Writer) (*Proxy, *connLog) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := &connLog{state: map[net.Conn]http.ConnState{}}
	srv := &http.Server{Handler: h, IdleTimeout: idle, ConnState: conns.hook}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close() })
	p, err := NewProxy([]string{ln.Addr().String(), ln.Addr().String()}, policy.Constant{A: 0}, stats.NewRand(1), logW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p, conns
}

// do sends one request through c and returns the reply's status and body.
func do(t *testing.T, c *http.Client, req *http.Request) (int, string) {
	t.Helper()
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return do(t, http.DefaultClient, req)
}

func idleConns(p *Proxy) int {
	u := p.ups[0]
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.idle)
}

// TestProxyCloseClosesUpstreamConns: after Close no upstream connection of
// the proxy's stays open, pooled or not.
func TestProxyCloseClosesUpstreamConns(t *testing.T) {
	p, conns := startPooledProxy(t, 0, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Millisecond)
		_, _ = io.WriteString(w, "ok")
	}, nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 3; j++ {
				resp, err := http.Get(p.URL() + "/x")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	total, _ := conns.counts()
	if total == 0 {
		t.Fatal("the upstream saw no connection")
	}
	p.Close()
	conns.waitClosed(t, total)
}

// TestProxyRetriesStaleIdleConn: the upstream closes a pooled connection
// while it is idle; the next bodiless GET finds it stale and is replayed once
// on a fresh connection.
func TestProxyRetriesStaleIdleConn(t *testing.T) {
	var hits atomic.Int64
	p, conns := startPooledProxy(t, 20*time.Millisecond, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		_, _ = io.WriteString(w, "ok")
	}, nil)
	if status, _ := get(t, p.URL()+"/a"); status != http.StatusOK {
		t.Fatalf("first request: status %d", status)
	}
	conns.waitClosed(t, 1)
	if n := idleConns(p); n != 1 {
		t.Fatalf("%d idle connections pooled, want the stale one", n)
	}
	if status, body := get(t, p.URL()+"/b"); status != http.StatusOK || body != "ok" {
		t.Fatalf("request on a stale connection: status %d body %q", status, body)
	}
	if total, _ := conns.counts(); total != 2 || hits.Load() != 2 {
		t.Errorf("upstream saw %d connections and %d requests, want 2 and 2", total, hits.Load())
	}
}

// TestProxyForwardsBodyWithoutRetry: request bodies, sized and chunked,
// reach the upstream intact; a request with a body whose reply never comes
// is answered 502 and not sent again, even on a reused connection.
func TestProxyForwardsBodyWithoutRetry(t *testing.T) {
	var drops atomic.Int64
	p, _ := startPooledProxy(t, 0, func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		if r.URL.Path == "/drop" {
			drops.Add(1)
			c, _, _ := http.NewResponseController(w).Hijack()
			c.Close()
			return
		}
		_, _ = w.Write(body)
	}, nil)
	payload := strings.Repeat("0123456789abcdef", 4096)
	for _, chunked := range []bool{false, true} {
		var body io.Reader = strings.NewReader(payload)
		if chunked {
			body = io.MultiReader(body) // hides the length: sent chunked
		}
		req, err := http.NewRequest(http.MethodPost, p.URL()+"/echo", body)
		if err != nil {
			t.Fatal(err)
		}
		if status, got := do(t, http.DefaultClient, req); status != http.StatusOK || got != payload {
			t.Fatalf("chunked=%v: status %d, echoed %d bytes of %d", chunked, status, len(got), len(payload))
		}
	}
	if n := idleConns(p); n != 1 {
		t.Fatalf("%d idle connections pooled, want 1", n)
	}
	req, err := http.NewRequest(http.MethodPost, p.URL()+"/drop", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	if status, _ := do(t, http.DefaultClient, req); status != http.StatusBadGateway {
		t.Errorf("dropped reply: status %d, want 502", status)
	}
	if drops.Load() != 1 {
		t.Errorf("the upstream saw the request %d times, want once", drops.Load())
	}
}

// TestProxyBodyTakesOnlyRecentConn: a request with a body, which is never
// replayed, dials rather than take a connection idle past bodyReuseWindow;
// a bodiless GET still takes that one.
func TestProxyBodyTakesOnlyRecentConn(t *testing.T) {
	p, conns := startPooledProxy(t, 0, func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(w, r.Body)
	}, nil)
	if status, _ := get(t, p.URL()+"/a"); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	u := p.ups[0]
	u.mu.Lock()
	u.idle[0].used = u.idle[0].used.Add(-2 * bodyReuseWindow)
	u.mu.Unlock()
	req, err := http.NewRequest(http.MethodPost, p.URL()+"/b", strings.NewReader("body"))
	if err != nil {
		t.Fatal(err)
	}
	if status, body := do(t, http.DefaultClient, req); status != http.StatusOK || body != "body" {
		t.Fatalf("POST: status %d body %q", status, body)
	}
	if total, _ := conns.counts(); total != 2 || idleConns(p) != 2 {
		t.Fatalf("upstream saw %d connections, %d pooled; want the POST on a second one and both pooled", total, idleConns(p))
	}
	if status, _ := get(t, p.URL()+"/c"); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if total, _ := conns.counts(); total != 2 {
		t.Errorf("upstream saw %d connections, want the GET on a pooled one", total)
	}
}

// TestProxyChunkedAndHeadReplies: a chunked reply and a HEAD reply are
// relayed, and both leave the connection reusable.
func TestProxyChunkedAndHeadReplies(t *testing.T) {
	p, conns := startPooledProxy(t, 0, func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			w.Header().Set("Content-Length", "5")
			return
		}
		_, _ = io.WriteString(w, "part1")
		http.NewResponseController(w).Flush() // no length yet: chunked
		_, _ = io.WriteString(w, "part2")
	}, nil)
	for i := 0; i < 2; i++ {
		if status, body := get(t, p.URL()+"/c"); status != http.StatusOK || body != "part1part2" {
			t.Fatalf("chunked reply: status %d body %q", status, body)
		}
		resp, err := http.Head(p.URL() + "/h")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ContentLength != 5 {
			t.Fatalf("HEAD reply: status %d length %d", resp.StatusCode, resp.ContentLength)
		}
	}
	if total, _ := conns.counts(); total != 1 {
		t.Errorf("upstream saw %d connections, want 1", total)
	}
}

// TestProxyHopByHopHeaders covers both directions. A client's Connection
// header, the headers it names and Keep-Alive stay at the proxy, so the
// upstream connection is kept. An upstream's Connection: close stays at the
// proxy too: that upstream connection is not pooled, and the client's
// connection is reused.
func TestProxyHopByHopHeaders(t *testing.T) {
	type seen struct {
		connection, hop, keepAlive string
		close                      bool
	}
	var mu sync.Mutex
	var got []seen
	p, conns := startPooledProxy(t, 0, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, seen{r.Header.Get("Connection"), r.Header.Get("X-Hop"), r.Header.Get("Keep-Alive"), r.Close})
		mu.Unlock()
		if r.URL.Path == "/close" {
			w.Header().Set("Connection", "close")
		}
		_, _ = io.WriteString(w, "ok")
	}, nil)

	for i := 0; i < 2; i++ {
		req, err := http.NewRequest(http.MethodGet, p.URL()+"/keep", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Close = true
		req.Header.Set("Connection", "X-Hop")
		req.Header.Set("X-Hop", "1")
		req.Header.Set("Keep-Alive", "timeout=5")
		if status, _ := do(t, http.DefaultClient, req); status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
	}
	for i, s := range got {
		if s != (seen{}) {
			t.Errorf("request %d reached the upstream with hop-by-hop headers %+v", i, s)
		}
	}
	if total, _ := conns.counts(); total != 1 {
		t.Errorf("client's Connection: close cost %d upstream connections, want 1", total)
	}

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	var reused []bool
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) }}
	for i := 0; i < 2; i++ {
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), http.MethodGet, p.URL()+"/close", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.Close || resp.Header.Get("Connection") != "" {
			t.Errorf("the upstream's Connection: close reached the client")
		}
		if n := idleConns(p); n != 0 {
			t.Errorf("a Connection: close reply left %d pooled connections", n)
		}
	}
	if len(reused) != 2 || !reused[1] {
		t.Errorf("client connection reuse %v, want the second request on the first's connection", reused)
	}
	conns.waitClosed(t, 2)
}

// logSignal is an access log that signals every line written.
type logSignal chan []byte

func (l logSignal) Write(b []byte) (int, error) {
	l <- append([]byte(nil), b...)
	return len(b), nil
}

// TestProxyClientCancelAbortsExchange: a client that goes away mid-exchange
// ends the upstream exchange within 100 ms — logged as a 502 — and that
// upstream connection is not reused.
func TestProxyClientCancelAbortsExchange(t *testing.T) {
	entered := make(chan struct{}, 1)
	log := make(logSignal, 2) // one line per request the test sends: the proxy never blocks on it
	p, conns := startPooledProxy(t, 0, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			entered <- struct{}{}
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
		}
		_, _ = io.WriteString(w, "ok")
	}, log)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL()+"/slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-entered
	cancel()
	canceled := time.Now()
	select {
	case line := <-log:
		if took := time.Since(canceled); took > 100*time.Millisecond {
			t.Errorf("exchange ended %v after the client went away, want within 100ms", took)
		}
		if !bytes.Contains(line, []byte(`"GET /slow HTTP/1.1" 502 `)) {
			t.Errorf("aborted exchange logged as %q", line)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the exchange outlived its client by 2s")
	}
	if err := <-done; err == nil {
		t.Error("the cancelled request succeeded")
	}
	if n := idleConns(p); n != 0 {
		t.Errorf("the aborted connection was pooled (%d idle)", n)
	}
	if status, _ := get(t, p.URL()+"/fast"); status != http.StatusOK {
		t.Errorf("next request: status %d", status)
	}
	<-log
	if total, _ := conns.counts(); total != 2 {
		t.Errorf("upstream saw %d connections, want a fresh one after the abort", total)
	}
}

// TestProxySkipsInformationalReplies: a 103 Early Hints before the reply
// is not relayed as the reply.
func TestProxySkipsInformationalReplies(t *testing.T) {
	p, _ := startPooledProxy(t, 0, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Link", "</a.css>; rel=preload")
		w.WriteHeader(http.StatusEarlyHints)
		w.Header().Del("Link")
		_, _ = io.WriteString(w, "done")
	}, nil)
	if status, body := get(t, p.URL()+"/hints"); status != http.StatusOK || body != "done" {
		t.Errorf("status %d body %q, want 200 %q", status, body, "done")
	}
}
