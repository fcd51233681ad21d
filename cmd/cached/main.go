// Command cached runs the Redis-like cache server: a byte-budgeted cache
// with sampled eviction behind a RESP2 TCP listener. Point any sequential
// RESP client (or this repository's resp.Client) at it.
//
// Usage:
//
//	cached [-addr HOST:PORT] [-maxbytes N] [-samples K]
//	       [-policy random|lru|lfu|freqsize] [-metrics-addr HOST:PORT]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"repro/internal/cachesim"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/resp"
	"repro/internal/stats"
)

func main() { daemon.Main("cached", run) }

// run wires flags → cache → RESP server and serves until ctx is cancelled.
// When ready is non-nil the bound RESP address is sent on it after startup —
// the hook tests use to drive a full server lifecycle in-process.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("cached", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:6399", "listen address")
	maxBytes := fs.Int64("maxbytes", 1<<20, "cache byte budget")
	samples := fs.Int("samples", 5, "eviction candidates sampled per decision (Redis maxmemory-samples)")
	polName := fs.String("policy", "random", "eviction policy: random|lru|lfu|freqsize")
	seed := fs.Int64("seed", 1, "RNG seed")
	metricsAddr := fs.String("metrics-addr", "", "Prometheus /metrics listen address (empty disables)")
	if err := daemon.ParseFlags(fs, args); err != nil {
		return err
	}

	r := stats.NewRand(*seed)
	var ev cachesim.Evictor
	switch *polName {
	case "random":
		ev = cachesim.RandomEvictor{R: stats.Split(r)}
	case "lru":
		ev = cachesim.LRUEvictor{}
	case "lfu":
		ev = cachesim.LFUEvictor{}
	case "freqsize":
		ev = cachesim.FreqSizeEvictor{}
	default:
		return fmt.Errorf("unknown policy %q", *polName)
	}

	var srv *resp.Server
	cache, err := cachesim.New(cachesim.Config{
		MaxBytes:   *maxBytes,
		SampleSize: *samples,
		OnEvict:    func(key string) { srv.OnEvict(key) },
	}, ev, stats.Split(r))
	if err != nil {
		return err
	}
	srv, err = resp.NewServer(cache)
	if err != nil {
		return err
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	defer srv.Close()

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		srv.RegisterMetrics(reg)
		obs.RegisterGoRuntime(reg)
		ms, err := daemon.ListenAndServe(*metricsAddr, obs.MetricsMux(reg))
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Fprintf(stdout, "cached: metrics on http://%s/metrics\n", ms.Addr())
	}

	fmt.Fprintf(stdout, "cached (%s eviction, %d bytes, %d samples) listening on %s\n",
		*polName, *maxBytes, *samples, bound)
	if ready != nil {
		ready <- bound.String()
	}

	<-ctx.Done()
	return nil
}
