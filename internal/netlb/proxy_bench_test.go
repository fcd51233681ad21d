package netlb

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/stats"
)

// BenchmarkProxyRequest is one GET with a 64-byte reply from a bare net/http
// upstream: sent straight to it (direct), through the proxy by one
// closed-loop client with the access log going to a file (proxied), and
// through the proxy from 64 goroutines at once, p99 reported (proxied-
// parallel). proxied − direct is what the proxy adds to a request.
func BenchmarkProxyRequest(b *testing.B) {
	body := bytes.Repeat([]byte("x"), 64)
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		up := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write(body)
		})}
		go func() { _ = up.Serve(ln) }()
		defer up.Close()
		addrs = append(addrs, ln.Addr().String())
	}
	log, err := os.Create(filepath.Join(b.TempDir(), "access.log"))
	if err != nil {
		b.Fatal(err)
	}
	defer log.Close()
	p, err := NewProxy(addrs, policy.UniformRandom{R: stats.NewRand(1)}, stats.NewRand(2), log)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := p.Start(); err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	c := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer c.CloseIdleConnections()
	fetch := func(url string) error {
		resp, err := c.Get(url)
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && n != int64(len(body)) {
			err = fmt.Errorf("%d-byte reply, want %d", n, len(body))
		}
		return err
	}
	for _, bc := range []struct{ name, url string }{
		{"direct", "http://" + addrs[0] + "/r"},
		{"proxied", p.URL() + "/r"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := fetch(bc.url); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("proxied-parallel", func(b *testing.B) {
		procs := runtime.GOMAXPROCS(0)
		b.SetParallelism((64 + procs - 1) / procs)
		var mu sync.Mutex
		var lat []time.Duration
		b.RunParallel(func(pb *testing.PB) {
			var mine []time.Duration
			for pb.Next() {
				start := time.Now()
				if err := fetch(p.URL() + "/r"); err != nil {
					b.Error(err)
					return
				}
				mine = append(mine, time.Since(start))
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		})
		if len(lat) > 0 {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds())/1e3, "p99-us")
		}
	})
}
