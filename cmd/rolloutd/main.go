// Command rolloutd closes the harvesting loop: it watches a harvestd (or
// harvestagg) /evidence surface — one request per poll for the two arms'
// estimates, diagnostics and fold watermark — and drives one candidate
// policy through a guarded staged rollout — shadow (counterfactual
// evaluation only) → canary epsilon ramp → full — promoting only when the
// empirical-Bernstein intervals separate AND the anytime-valid sequential
// test agrees, and rolling back automatically on a confirmed regression or
// estimator-health collapse (ESS floor, clip ceiling, stale estimates).
// The chosen traffic share is pushed to an actuation endpoint (lbd's
// -admin-addr /share), and every gate decision is served machine-readable
// on /gates.
//
// Usage:
//
//	rolloutd -harvest URL -candidate NAME -baseline NAME
//	         [-actuate URL] [-objective max|min] [-estimator clipped_ips|ips]
//	         [-delta F] [-shares 0.01,0.05,0.25] [-min-samples N]
//	         [-term-hi F] [-ess-floor F] [-clip-ceiling F] [-stale-after D]
//	         [-poll-interval D] [-addr HOST:PORT]
//	         [-checkpoint PATH] [-checkpoint-interval D] [-trace PATH]
//	         [-debug-addr HOST:PORT]
//
// rolloutd runs until SIGINT/SIGTERM (writing a final checkpoint when
// -checkpoint is set), then prints the stage history. A restart with the
// same -checkpoint resumes the state machine exactly where it stopped and
// re-asserts the current share on the actuation target.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/rollout"
)

func main() { daemon.Main("rolloutd", run) }

// run wires flags → controller, serves until ctx is cancelled, then shuts
// down gracefully. When ready is non-nil the API base URL is sent on it
// after startup — the hook the tests use to drive a full lifecycle
// in-process.
func run(ctx context.Context, args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("rolloutd", flag.ContinueOnError)
	harvest := fs.String("harvest", "", "harvestd or harvestagg base URL (required)")
	candidate := fs.String("candidate", "", "candidate policy name on the harvest surface (required)")
	baseline := fs.String("baseline", "", "baseline policy name on the harvest surface (required)")
	actuate := fs.String("actuate", "", "share actuation endpoint, e.g. http://host:port/share (empty = observe only)")
	objective := fs.String("objective", "max", "whether larger estimates are better: max or min")
	estimator := fs.String("estimator", "clipped_ips", "served estimator to gate on: clipped_ips or ips")
	delta := fs.Float64("delta", 0.05, "per-gate interval failure probability")
	sharesSpec := fs.String("shares", "0.01,0.05,0.25", "canary share ramp, strictly increasing in (0,1)")
	minSamples := fs.Int64("min-samples", 200, "new candidate samples required per stage before promotion")
	termHi := fs.Float64("term-hi", 1, "upper bound on per-datapoint estimator terms (clip x max reward)")
	essFloor := fs.Float64("ess-floor", 0.05, "roll back below this candidate ESS fraction (negative disables)")
	clipCeiling := fs.Float64("clip-ceiling", 0.25, "roll back above this candidate clip fraction (<=0 disables)")
	staleAfter := fs.Duration("stale-after", 5*time.Minute, "roll back when no new candidate samples for this long (<=0 disables)")
	pollInterval := fs.Duration("poll-interval", 2*time.Second, "control cycle period")
	addr := fs.String("addr", "127.0.0.1:8448", "HTTP API listen address")
	checkpoint := fs.String("checkpoint", "", "controller checkpoint file (empty disables)")
	ckptEvery := fs.Duration("checkpoint-interval", 30*time.Second, "time between checkpoints")
	tracePath := fs.String("trace", "", "JSONL trace output file (empty disables)")
	debugAddr := fs.String("debug-addr", "", "pprof/expvar listen address (empty disables)")
	if err := daemon.ParseFlags(fs, args); err != nil {
		return err
	}
	if *harvest == "" {
		return fmt.Errorf("missing -harvest URL")
	}
	shares, err := parseShares(*sharesSpec)
	if err != nil {
		return err
	}

	var tracer *obs.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("creating trace file: %w", err)
		}
		defer func() { _ = f.Close() }()
		tracer = obs.NewTracer(f, nil)
	}

	var act rollout.Actuator
	if *actuate != "" {
		act = &rollout.HTTPActuator{URL: *actuate}
	}

	c, err := rollout.New(rollout.Config{
		Candidate:          *candidate,
		Baseline:           *baseline,
		Objective:          rollout.Objective(*objective),
		Estimator:          *estimator,
		Delta:              *delta,
		CanaryShares:       shares,
		MinStageSamples:    *minSamples,
		TermHi:             *termHi,
		ESSFloor:           *essFloor,
		ClipCeiling:        *clipCeiling,
		StaleAfter:         *staleAfter,
		PollInterval:       *pollInterval,
		Addr:               *addr,
		CheckpointPath:     *checkpoint,
		CheckpointInterval: *ckptEvery,
		Harvest:            &rollout.HTTPHarvest{BaseURL: strings.TrimSuffix(*harvest, "/")},
		Actuator:           act,
		Tracer:             tracer,
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
		fmt.Fprintf(stdout, "rolloutd: debug (pprof/expvar) on http://%s/debug/pprof/\n", debug.Addr())
	}

	doing := fmt.Sprintf("gating %s vs %s from %s", *candidate, *baseline, *harvest)
	if err := daemon.Run(ctx, c, "rolloutd", doing, stdout, ready); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "rolloutd: final stage=%s share=%g\n", c.Stage(), c.Share())
	for _, tr := range c.Transitions() {
		fmt.Fprintf(stdout, "rolloutd: %s -> %s (share %g) at poll %d: %s\n",
			tr.From, tr.To, tr.Share, tr.AtPoll, tr.Reason)
	}
	return nil
}

// parseShares parses "0.01,0.05,0.25" into the canary ramp.
func parseShares(spec string) ([]float64, error) {
	var out []float64
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		v, err := strconv.ParseFloat(item, 64)
		if err != nil {
			return nil, fmt.Errorf("bad share %q: %w", item, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no canary shares given (want -shares 0.01,0.05,0.25)")
	}
	return out, nil
}
