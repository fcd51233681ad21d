package netlb

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/stats"
)

var updateHarvestGolden = flag.Bool("update-harvest-golden", false, "rewrite testdata/harvest-seeded.golden")

// harvestClock matches what a seeded run cannot fix: the client's port, the
// timestamp and the request time.
var harvestClock = regexp.MustCompile(`(?m)^(127\.0\.0\.1):\d+ - - \[[^\]]*\](.*) rt=\d+\.\d{6} `)

// TestHarvestBytesSeeded pins what the harvester reads off a seeded proxy:
// 2000 sequential typed requests under uniform routing over three upstreams,
// whose access log — wall clock and OS fields masked — must equal the
// golden byte for byte. Status, bytes, upstream, conns, propensity and type
// are all decided by the seed and the data path, so a data-path change that
// moves any of them shows here.
func TestHarvestBytesSeeded(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		b, err := StartBackend(i, time.Nanosecond, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		addrs = append(addrs, b.Addr())
	}
	var log bytes.Buffer
	p, err := NewProxy(addrs, policy.UniformRandom{R: stats.NewRand(11)}, stats.NewRand(12), &log)
	if err != nil {
		t.Fatal(err)
	}
	p.SetNumTypes(3)
	if _, err := p.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c := &http.Client{}
	defer c.CloseIdleConnections()
	for i := 0; i < 2000; i++ {
		resp, err := c.Get(fmt.Sprintf("%s/type/%d/r%d", p.URL(), i%4, i))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	got := harvestClock.ReplaceAll(log.Bytes(), []byte("$1:PORT - - [TIME]$2 rt=RT "))
	path := filepath.Join("testdata", "harvest-seeded.golden")
	if *updateHarvestGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("access log line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("access log has %d lines, golden %d", len(gl), len(wl))
	}
}
