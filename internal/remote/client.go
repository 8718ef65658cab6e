package remote

import (
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"time"

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
	return &RemoteTarget{base: c.base, prefix: prefix, opts: c.opts, client: c.httpc, codec: c.codec}
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
func (c *Client) Admin() *Admin {
	t := c.Target("")
	return &Admin{base: c.base, opts: c.opts, client: c.httpc, t: t}
}

// Close releases pooled connections. Targets and Admins handed out by
// this Client share the pool, so close once, after all of them are
// done.
func (c *Client) Close() {
	if tr, ok := c.httpc.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}
