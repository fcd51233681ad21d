package rollout

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/harvestd"
)

// HarvestClient supplies the controller's input. Both harvestd and
// harvestagg serve it, so a controller can watch a single shard or a whole
// fleet; tests supply scripted implementations.
type HarvestClient interface {
	// Evidence returns, from one consistent read of the harvest surface,
	// the named policies' estimate and diagnostics rows (in argument order)
	// and the fold watermark behind them.
	Evidence(ctx context.Context, policies ...string) (harvestd.Evidence, error)
}

// HTTPHarvest reads /evidence from a harvestd or harvestagg base URL.
type HTTPHarvest struct {
	// BaseURL is e.g. "http://127.0.0.1:9001" (no trailing slash needed).
	BaseURL string
	// Client defaults to a shared client with a 10s timeout.
	Client *http.Client
}

// defaultClient serves every HTTP call a Client left nil, so reads and
// actuations reuse keep-alive connections.
var defaultClient = &http.Client{Timeout: 10 * time.Second}

// clientOr returns c, or the shared default client when c is nil.
func clientOr(c *http.Client) *http.Client {
	if c == nil {
		return defaultClient
	}
	return c
}

func (h *HTTPHarvest) get(ctx context.Context, path string, v any) error {
	err := daemon.Get(ctx, clientOr(h.Client), h.BaseURL+path, func(body io.Reader) error {
		return json.NewDecoder(io.LimitReader(body, core.MaxRecordBytes)).Decode(v)
	})
	if err != nil {
		return fmt.Errorf("rollout: %s: %w", path, err)
	}
	return nil
}

// Evidence implements HarvestClient with one GET /evidence?policy=a,b. An
// unknown policy is the surface's 404 and comes back as an error: gating on
// a policy the daemon is not tracking would silently hold forever.
func (h *HTTPHarvest) Evidence(ctx context.Context, policies ...string) (harvestd.Evidence, error) {
	var out harvestd.Evidence
	path := "/evidence?policy=" + url.QueryEscape(strings.Join(policies, ","))
	if err := h.get(ctx, path, &out); err != nil {
		return harvestd.Evidence{}, err
	}
	if out.Version != harvestd.EvidenceVersion {
		return harvestd.Evidence{}, fmt.Errorf("rollout: /evidence version %d, want %d", out.Version, harvestd.EvidenceVersion)
	}
	return out, nil
}

// Estimates fetches /estimates (every policy).
//
// Deprecated: the controller reads Evidence; this remains for the loop
// benchmark's fetch probe.
func (h *HTTPHarvest) Estimates(ctx context.Context) ([]harvestd.PolicyEstimate, error) {
	var out []harvestd.PolicyEstimate
	err := h.get(ctx, "/estimates", &out)
	return out, err
}

// Diagnostics fetches /diagnostics (every policy).
//
// Deprecated: see Estimates.
func (h *HTTPHarvest) Diagnostics(ctx context.Context) (harvestd.DiagnosticsReport, error) {
	var out harvestd.DiagnosticsReport
	err := h.get(ctx, "/diagnostics", &out)
	return out, err
}

// Freshness fetches the top-level watermark triple of /freshness.
//
// Deprecated: see Estimates.
func (h *HTTPHarvest) Freshness(ctx context.Context) (*harvestd.Watermark, error) {
	var out harvestd.Watermark
	if err := h.get(ctx, "/freshness", &out); err != nil {
		return nil, err
	}
	return &out, nil
}
