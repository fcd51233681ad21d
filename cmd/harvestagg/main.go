// Command harvestagg runs the fleet aggregation tier: it periodically
// pulls per-shard estimator snapshots from N harvestd /snapshot endpoints,
// merges them through the order-insensitive accumulator merge, and serves
// fleet-wide /estimates, /evidence, /diagnostics, /freshness, /shards and
// /metrics from the merged state. Shards that stop answering are retried with backoff and
// dropped from the merge once their last snapshot ages past -stale-after;
// estimates degrade gracefully (coverage shrinks, intervals widen) and
// recover when the shard returns.
//
// Usage:
//
//	harvestagg -shards NAME=URL,NAME=URL,... [-addr HOST:PORT]
//	           [-pull-interval D] [-pull-timeout D] [-stale-after D]
//	           [-max-backoff D] [-delta F] [-checkpoint PATH]
//	           [-checkpoint-interval D] [-debug-addr HOST:PORT]
//
// The aggregator runs until SIGINT/SIGTERM, then writes a final checkpoint
// (when -checkpoint is set) and prints the merged estimates. A restart with
// the same -checkpoint resumes serving the last pulled state immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/fleet"
	"repro/internal/obs"
)

func main() { daemon.Main("harvestagg", run) }

// run wires flags → aggregator, serves until ctx is cancelled (the SIGTERM
// path), then shuts down gracefully. When ready is non-nil the API base URL
// is sent on it after startup — the hook the tests use to drive a full
// aggregator lifecycle in-process.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("harvestagg", flag.ContinueOnError)
	shardsSpec := fs.String("shards", "", "fleet shards as NAME=URL,NAME=URL,... (required)")
	addr := fs.String("addr", "127.0.0.1:8348", "HTTP API listen address")
	pullInterval := fs.Duration("pull-interval", 2*time.Second, "per-shard snapshot poll period")
	pullTimeout := fs.Duration("pull-timeout", 5*time.Second, "per-pull request timeout")
	staleAfter := fs.Duration("stale-after", 30*time.Second,
		"drop a shard from the merge when its last snapshot is older than this (<=0 never)")
	maxBackoff := fs.Duration("max-backoff", 30*time.Second, "cap on per-shard retry backoff")
	delta := fs.Float64("delta", 0.05, "default interval failure probability")
	checkpoint := fs.String("checkpoint", "", "aggregator checkpoint file (empty disables)")
	ckptEvery := fs.Duration("checkpoint-interval", 30*time.Second, "time between checkpoints")
	debugAddr := fs.String("debug-addr", "", "pprof/expvar listen address (empty disables)")
	if err := daemon.ParseFlags(fs, args); err != nil {
		return err
	}
	shards, err := parseShards(*shardsSpec)
	if err != nil {
		return err
	}

	a, err := fleet.New(fleet.Config{
		Shards:             shards,
		PullInterval:       *pullInterval,
		PullTimeout:        *pullTimeout,
		MaxBackoff:         *maxBackoff,
		StaleAfter:         *staleAfter,
		Delta:              *delta,
		Addr:               *addr,
		CheckpointPath:     *checkpoint,
		CheckpointInterval: *ckptEvery,
		Logf:               daemon.Logf(stdout),
	})
	if err != nil {
		return err
	}

	debug, err := obs.StartDebug(*debugAddr)
	if err != nil {
		return err
	}
	defer debug.Close()
	if debug != nil {
		fmt.Fprintf(stdout, "harvestagg: debug (pprof/expvar) on http://%s/debug/pprof/\n", debug.Addr())
	}

	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.Name
	}
	if err := daemon.Run(ctx, a, "harvestagg", "aggregating "+strings.Join(names, ", "), stdout, ready); err != nil {
		return err
	}
	for _, pe := range a.Estimates(*delta) {
		fmt.Fprintf(stdout, "harvestagg: %-14s n=%-8d snips=%.6f ± %.6f\n",
			pe.Policy, pe.N, pe.SNIPS.Value, pe.SNIPS.StdErr)
	}
	return nil
}

// parseShards parses "a=http://h1:p,b=http://h2:p" into the fleet config.
func parseShards(spec string) ([]fleet.Shard, error) {
	var out []fleet.Shard
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, url, ok := strings.Cut(item, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("bad shard %q (want NAME=URL)", item)
		}
		out = append(out, fleet.Shard{Name: name, URL: strings.TrimSuffix(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shards given (want -shards NAME=URL,...)")
	}
	return out, nil
}
