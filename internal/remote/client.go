package remote

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

	"pace/internal/obs"
	"pace/internal/wire"
)

// Client is one connection to a paced (or pacerouter) host: a shared
// HTTP pool handing out per-tenant data-path targets and the admin
// surface.
type Client struct {
	base  string
	opts  Options
	httpc *http.Client
	codec wire.Codec
}

// NewClient validates the base URL and codec and builds the shared
// pool. baseURL is scheme://host[:port]; a full tenant route
// (…/v1/targets/<id>) is also accepted for compatibility, in which case
// Target's id argument is ignored.
func NewClient(baseURL string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	baseURL = strings.TrimRight(baseURL, "/")
	if !strings.HasPrefix(baseURL, "http://") && !strings.HasPrefix(baseURL, "https://") {
		return nil, fmt.Errorf("remote: target URL %q must be http(s)", baseURL)
	}
	if _, err := url.Parse(baseURL); err != nil {
		return nil, fmt.Errorf("remote: target URL: %w", err)
	}
	codec, ok := wire.CodecByName(opts.Codec)
	if !ok {
		return nil, fmt.Errorf("remote: unknown codec %q (want json or binary)", opts.Codec)
	}
	httpc := opts.Client
	if httpc == nil {
		httpc = &http.Client{
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return &Client{base: baseURL, opts: opts, httpc: httpc, codec: codec}, nil
}

// Target hands out the data-path client for one tenant. id "" routes to
// the legacy unrouted endpoints (the "default" tenant); when the base
// URL itself already carries /v1/targets/{id}, id is ignored. Targets
// share the Client's pool — hand out as many as needed.
func (c *Client) Target(id string) *RemoteTarget {
	prefix := "/v1"
	switch {
	case strings.Contains(c.base, "/v1/targets/"):
		prefix = "" // the URL already routes to a tenant
	case id != "":
		prefix = "/v1/targets/" + url.PathEscape(id)
	}
	return &RemoteTarget{c: c, prefix: prefix, opts: c.opts, codec: c.codec}
}

// TargetAs is Target with a per-target client identity: the returned
// target sends clientID as X-Pace-Client instead of the Client-wide
// identity. Targets stay cheap (they share the pool), so a workload
// replayer hands out one per planned client and the server's per-client
// token buckets see the planned population instead of one monolithic
// load generator. An empty clientID falls back to the Client identity.
func (c *Client) TargetAs(id, clientID string) *RemoteTarget {
	t := c.Target(id)
	if clientID != "" {
		t.opts.ClientID = clientID
	}
	return t
}

// Admin hands out the tenant admin surface (always JSON on the wire).
func (c *Client) Admin() *Admin { return &Admin{t: c.Target("")} }

// Close releases pooled connections. Targets and Admins handed out by
// this Client share the pool, so close once, after all of them are
// done.
func (c *Client) Close() {
	if tr, ok := c.httpc.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// Call is one outbound request for Client.Exchange.
type Call struct {
	Method, Path string
	// ContentType labels Body, and Accept names the reply codec asked
	// for; "" sends no such header.
	ContentType, Accept string
	// Body is sent as is, without a copy; nil sends none.
	Body []byte
	// ClientID is sent as X-Pace-Client; "" sends the Client's identity.
	ClientID string
	// Header holds extra request headers; empty values are not sent.
	Header map[string]string
	// Backstop bounds the exchange when ctx carries no deadline; zero
	// leaves ctx as its only lifetime.
	Backstop time.Duration
}

// Reply is a completed exchange: any status, with its headers and its
// body read up to wire.MaxBody.
type Reply struct {
	Status int
	Header http.Header
	Body   []byte
}

// Exchange is the one outbound HTTP exchange every caller shares. It
// sends call to the Client's host with the trace (the current span in
// ctx), identity, bearer and codec headers, and reads the whole
// reply. Every status is a Reply: classifying it is the caller's
// policy. The error is a transport or body-read failure — or, when the
// exchange's context ended, exactly ctx.Err() (see ctxEnded).
func (c *Client) Exchange(ctx context.Context, call Call) (*Reply, error) {
	if _, ok := ctx.Deadline(); !ok && call.Backstop > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, call.Backstop)
		defer cancel()
	}
	var body io.Reader
	if call.Body != nil {
		body = bytes.NewReader(call.Body)
	}
	req, err := http.NewRequestWithContext(ctx, call.Method, c.base+call.Path, body)
	if err != nil {
		return nil, fmt.Errorf("remote: request: %w", err)
	}
	if call.ContentType != "" {
		req.Header.Set("Content-Type", call.ContentType)
	}
	if call.Accept != "" {
		req.Header.Set("Accept", call.Accept)
	}
	for k, v := range call.Header {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	if call.ClientID == "" {
		call.ClientID = c.opts.ClientID
	}
	req.Header.Set(wire.ClientHeader, call.ClientID)
	if c.opts.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.opts.AuthToken)
	}
	// The receiving process parents its spans under the caller's current
	// span, stitching the fleet-wide tree.
	if tp := obs.TraceParent(ctx); tp != "" {
		req.Header.Set(wire.TraceHeader, tp)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, wire.MaxBody))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("reading response: %w", err)
	}
	return &Reply{Status: resp.StatusCode, Header: resp.Header, Body: raw}, nil
}

// ctxEnded reports whether an Exchange error is its context's own end.
// That is the caller's error class, never the host's: the retry layer
// must not retry it.
func ctxEnded(err error) bool {
	return err == context.Canceled || err == context.DeadlineExceeded
}
