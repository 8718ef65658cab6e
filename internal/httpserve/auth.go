package httpserve

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"pace/internal/wire"
)

// ClientIdentity resolves who is calling, for rate limiting and quotas.
//
// With Config.AuthTokens set the identity is spoof-proof: it is the name
// mapped from the Authorization bearer token, and requests without a
// known token are refused with 401 and a WWW-Authenticate challenge —
// the X-Pace-Client header is ignored entirely. Without tokens the
// header is trusted, falling back to the peer host.
func (s *Server) ClientIdentity(w http.ResponseWriter, r *http.Request) (string, bool) {
	if len(s.cfg.AuthTokens) == 0 {
		if c := r.Header.Get(wire.ClientHeader); c != "" {
			return c, true
		}
		if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
			return host, true
		}
		return r.RemoteAddr, true
	}
	msg := "missing Authorization: Bearer token"
	if tok, ok := bearerToken(r); ok {
		if name, known := s.cfg.AuthTokens[tok]; known {
			return name, true
		}
		msg = "unknown bearer token"
	}
	s.mUnauthorized.Inc()
	w.Header().Set("WWW-Authenticate", `Bearer realm="`+s.cfg.Realm+`"`)
	WriteError(w, http.StatusUnauthorized, wire.CodeUnauthorized, msg)
	return "", false
}

func bearerToken(r *http.Request) (string, bool) {
	auth := r.Header.Get("Authorization")
	const prefix = "Bearer "
	if len(auth) <= len(prefix) || !strings.EqualFold(auth[:len(prefix)], prefix) {
		return "", false
	}
	return strings.TrimSpace(auth[len(prefix):]), true
}

// ParseAuthTokens reads a token file: one "token client-name" pair per
// line, '#' comments and blank lines ignored. This is the -auth-tokens
// format of cmd/paced and cmd/pacerouter.
func ParseAuthTokens(r io.Reader) (map[string]string, error) {
	tokens := make(map[string]string)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("auth tokens line %d: want \"token client-name\", got %q", line, text)
		}
		if _, dup := tokens[fields[0]]; dup {
			return nil, fmt.Errorf("auth tokens line %d: duplicate token", line)
		}
		tokens[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("auth tokens: %w", err)
	}
	return tokens, nil
}
