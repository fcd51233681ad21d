package rollout

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/daemon"
)

// Actuator pushes the controller's chosen candidate traffic share to the
// system serving requests. Implementations must be idempotent: the
// controller re-asserts the current share on startup (a restart mid-canary
// replays the last transition's share).
type Actuator interface {
	// SetShare sets the candidate's traffic share in [0, 1].
	SetShare(ctx context.Context, share float64) error
}

// FuncActuator adapts a function — the in-process hook for tests and for
// embedding the controller next to a policy.DynamicBlend.
type FuncActuator func(ctx context.Context, share float64) error

// SetShare implements Actuator.
func (f FuncActuator) SetShare(ctx context.Context, share float64) error { return f(ctx, share) }

// shareBody is the actuation wire payload, shared with lbd's admin
// endpoint.
type shareBody struct {
	Share float64 `json:"share"`
}

// HTTPActuator POSTs {"share": x} to a URL — lbd's -admin-addr /share
// endpoint, or anything speaking the same one-field contract.
type HTTPActuator struct {
	// URL is the full endpoint, e.g. "http://127.0.0.1:9090/share".
	URL string
	// Client defaults to the shared client HTTPHarvest uses (10s timeout).
	Client *http.Client
}

// SetShare implements Actuator.
func (a *HTTPActuator) SetShare(ctx context.Context, share float64) error {
	if share < 0 || share > 1 {
		return fmt.Errorf("rollout: share %g out of [0, 1]", share)
	}
	body, err := json.Marshal(shareBody{Share: share})
	if err != nil {
		return fmt.Errorf("rollout: encoding share: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.URL, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("rollout: building actuation request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	if err := daemon.Do(clientOr(a.Client), req, nil); err != nil {
		return fmt.Errorf("rollout: actuating: %w", err)
	}
	return nil
}
