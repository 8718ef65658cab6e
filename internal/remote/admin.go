package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"pace/internal/wire"
)

// Admin drives a paced host's tenant admin surface: provisioning,
// listing and destroying targets at runtime. It shares the error
// taxonomy of RemoteTarget (429 → ErrOverloaded, other 4xx →
// ce.ErrInvalidQuery, 5xx/network → ErrUnavailable) so callers can reuse
// the same retry policies.
type Admin struct {
	base   string
	opts   Options
	client *http.Client
	t      *RemoteTarget // classification + counters live here
}

// Close releases pooled connections.
func (a *Admin) Close() { a.t.Close() }

// CreateTarget provisions a tenant and blocks until its world is trained
// (pass a generous ctx — model training can take minutes).
func (a *Admin) CreateTarget(ctx context.Context, spec wire.TargetSpec) (wire.TargetInfo, error) {
	req := wire.CreateTargetRequest{V: wire.Version, Target: spec}
	var resp wire.CreateTargetResponse
	if err := a.do(ctx, http.MethodPost, "/v1/targets", req, &resp); err != nil {
		return wire.TargetInfo{}, err
	}
	return resp.Target, nil
}

// DeleteTarget drains and removes a tenant.
func (a *Admin) DeleteTarget(ctx context.Context, id string) error {
	var resp wire.DeleteTargetResponse
	return a.do(ctx, http.MethodDelete, "/v1/targets/"+url.PathEscape(id), nil, &resp)
}

// ListTargets snapshots the host's tenant directory.
func (a *Admin) ListTargets(ctx context.Context) ([]wire.TargetInfo, error) {
	var resp wire.ListTargetsResponse
	if err := a.do(ctx, http.MethodGet, "/v1/targets", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Targets, nil
}

// Healthz reports the host's overall status and each tenant's state.
func (a *Admin) Healthz(ctx context.Context) (wire.HealthzResponse, error) {
	var resp wire.HealthzResponse
	err := a.do(ctx, http.MethodGet, "/healthz", nil, &resp)
	return resp, err
}

// WaitReady polls until the named tenant reports ready, the deadline
// passes, or ctx dies — the harness-side barrier between provisioning a
// tenant and attacking it.
func (a *Admin) WaitReady(ctx context.Context, id string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		hz, err := a.Healthz(ctx)
		if err == nil && hz.Tenants[id] == "ready" {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			state := hz.Tenants[id]
			if state == "" {
				state = "absent"
			}
			return fmt.Errorf("%w: tenant %s still %s after %v", ErrUnavailable, id, state, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (a *Admin) do(ctx context.Context, method, path string, body, dst any) error {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, a.opts.RequestTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("remote: encode: %w", err)
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, rd)
	if err != nil {
		return fmt.Errorf("remote: request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(wire.ClientHeader, a.opts.ClientID)
	if a.opts.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+a.opts.AuthToken)
	}
	resp, err := a.client.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		a.t.unavailableCount.Add(1)
		return fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, wire.MaxBody))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		a.t.unavailableCount.Add(1)
		return fmt.Errorf("%w: reading response: %v", ErrUnavailable, err)
	}
	// /healthz deliberately answers 503 with a valid body while draining;
	// surface the body when it decodes, the classified error otherwise.
	if resp.StatusCode == http.StatusOK ||
		(strings.HasSuffix(path, "/healthz") && json.Valid(raw) && !bytes.Contains(raw, []byte(`"code"`))) {
		if err := json.Unmarshal(raw, dst); err != nil {
			a.t.unavailableCount.Add(1)
			return fmt.Errorf("%w: malformed response: %v", ErrUnavailable, err)
		}
		return nil
	}
	return a.t.classify(resp, raw)
}
