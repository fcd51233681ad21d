// Command fleetwatch is the fleet health watcher: it scrapes every OPE
// daemon's /metrics (plus /freshness on harvest surfaces and /gates on
// rollout controllers) on a fixed cadence, retains bounded ring-buffer
// time series, and evaluates a declarative alert table — scrape liveness,
// estimator-health collapse (ESS floor, clip ceiling), shard staleness,
// pipeline freshness SLOs, and rollout gate flapping — with for-duration
// hysteresis. Every alert open and resolve is appended as a versioned
// incident record to a JSONL file (-incidents), and the live state is
// served on /alerts, /series, /status, /healthz, and /metrics.
//
// Usage:
//
//	fleetwatch -targets kind:name=URL[,kind:name=URL...]
//	           [-addr HOST:PORT] [-interval D] [-scrape-timeout D]
//	           [-incidents PATH] [-for D] [-ess-floor F] [-clip-ceiling F]
//	           [-lag-slo SECS] [-stale-slo SECS]
//	           [-flap-window N] [-flap-threshold N] [-series-cap N]
//
// Target kinds are lbd, harvestd, harvestagg, and rolloutd; the kind
// selects which surfaces are scraped beyond /metrics. Example:
//
//	fleetwatch -targets harvestd:shard-a=http://127.0.0.1:8455,rolloutd:ctl=http://127.0.0.1:8457
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/obswatch"
)

func main() { daemon.Main("fleetwatch", run) }

// run wires flags → watcher, serves until ctx is cancelled, then shuts
// down gracefully. When ready is non-nil the API base URL is sent on it
// after startup — the hook the tests use to drive a full lifecycle
// in-process.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("fleetwatch", flag.ContinueOnError)
	targetsSpec := fs.String("targets", "", "comma-separated kind:name=URL scrape targets (required)")
	addr := fs.String("addr", "127.0.0.1:8460", "HTTP API listen address")
	interval := fs.Duration("interval", 2*time.Second, "scrape period")
	scrapeTimeout := fs.Duration("scrape-timeout", 5*time.Second, "per-fetch HTTP timeout")
	incidents := fs.String("incidents", "", "incident JSONL output file (empty disables)")
	forDur := fs.Duration("for", 0, "hysteresis: a condition must hold this long before its alert opens")
	essFloor := fs.Float64("ess-floor", 0.1, "alert when a policy's ESS fraction drops below this")
	clipCeiling := fs.Float64("clip-ceiling", 0.4, "alert when a policy's clip fraction exceeds this")
	lagSLO := fs.Float64("lag-slo", 30, "alert when a harvest surface's watermark age exceeds this many seconds")
	staleSLO := fs.Float64("stale-slo", 15, "alert when a fleet shard's last pull is older than this many seconds")
	flapWindow := fs.Int("flap-window", 10, "trailing gate decisions inspected for flapping")
	flapThreshold := fs.Int("flap-threshold", 3, "alert at this many outcome changes inside the flap window")
	seriesCap := fs.Int("series-cap", 512, "samples retained per time series")
	if err := daemon.ParseFlags(fs, args); err != nil {
		return err
	}
	targets, err := parseTargets(*targetsSpec)
	if err != nil {
		return err
	}

	var incidentW io.Writer
	if *incidents != "" {
		f, err := os.OpenFile(*incidents, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("opening incident log: %w", err)
		}
		defer func() { _ = f.Close() }()
		incidentW = f
	}

	w, err := obswatch.New(obswatch.Config{
		Targets: targets,
		Rules: obswatch.DefaultRules(obswatch.RuleDefaults{
			ESSFloor:      *essFloor,
			ClipCeiling:   *clipCeiling,
			LagSLO:        *lagSLO,
			StaleSLO:      *staleSLO,
			FlapThreshold: *flapThreshold,
			For:           *forDur,
		}),
		Interval:      *interval,
		ScrapeTimeout: *scrapeTimeout,
		SeriesCap:     *seriesCap,
		FlapWindow:    *flapWindow,
		IncidentW:     incidentW,
		Addr:          *addr,
		Logf:          daemon.Logf(stdout),
	})
	if err != nil {
		return err
	}
	if err := daemon.Run(ctx, w, "fleetwatch", "", stdout, ready); err != nil {
		return err
	}
	st := w.StatusNow()
	fmt.Fprintf(stdout, "fleetwatch: final ticks=%d firing=%d incidents=%d\n",
		st.Ticks, st.AlertsFiring, st.Incidents)
	return nil
}

// parseTargets parses "kind:name=URL,kind:name=URL" into the target list.
func parseTargets(spec string) ([]obswatch.Target, error) {
	var out []obswatch.Target
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kind, rest, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("bad target %q (want kind:name=URL)", item)
		}
		name, url, ok := strings.Cut(rest, "=")
		if !ok {
			return nil, fmt.Errorf("bad target %q (want kind:name=URL)", item)
		}
		switch kind {
		case obswatch.KindLBD, obswatch.KindHarvestd, obswatch.KindHarvestagg, obswatch.KindRolloutd:
		default:
			return nil, fmt.Errorf("unknown target kind %q in %q", kind, item)
		}
		out = append(out, obswatch.Target{Kind: kind, Name: name, URL: url})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no targets given (want -targets kind:name=URL,...)")
	}
	return out, nil
}
