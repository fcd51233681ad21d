package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"
)

// Server is an owned listener + HTTP server. Listen and Serve are split so
// a service fails on a bad address before it spawns anything and answers
// only once it is wired. The nil *Server is the disabled server: Addr is
// "", Shutdown and Close do nothing.
type Server struct {
	ln  net.Listener
	srv http.Server
}

// Listen binds addr; "" returns (nil, nil), the disabled server.
func Listen(addr string) (*Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return &Server{ln: ln}, nil
}

// Serve answers on the listener with h until Shutdown or Close.
func (s *Server) Serve(h http.Handler) {
	s.srv.Handler = h
	go func() { _ = s.srv.Serve(s.ln) }() // ErrServerClosed once stopped
}

// ListenAndServe is Listen, then Serve when addr is not "".
func ListenAndServe(addr string, h http.Handler) (*Server, error) {
	s, err := Listen(addr)
	if s != nil {
		s.Serve(h)
	}
	return s, err
}

// Addr returns the bound host:port.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Shutdown stops a serving server gracefully, waiting for in-flight
// requests until ctx ends.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

// Close stops a serving server at once.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// WriteJSON renders v as a JSON reply with one-space indent and a trailing
// newline — the encoding every service shares, so a fleet's merged payload
// and one shard's compare byte for byte.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v) // the client went away: nobody to tell
}

// Every calls fn every interval until ctx is done. It blocks.
func Every(ctx context.Context, interval time.Duration, fn func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			fn()
		case <-ctx.Done():
			return
		}
	}
}

// StatusError is a reply whose status was not 200 OK.
type StatusError struct {
	URL  string
	Code int
	Body string // the reply's first 256 bytes, trimmed
}

func (e *StatusError) Error() string {
	return strings.TrimSuffix(fmt.Sprintf("%s: HTTP %d: %s", e.URL, e.Code, e.Body), ": ")
}

// StatusCode returns the status of a StatusError in err's chain, or 0.
func StatusCode(err error) int {
	var se *StatusError
	if errors.As(err, &se) {
		return se.Code
	}
	return 0
}

// Get issues GET url under ctx and hands a 200 reply's body to decode; any
// other status is a *StatusError.
func Get(ctx context.Context, client *http.Client, url string, decode func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return fmt.Errorf("building request: %w", err)
	}
	return Do(client, req, decode)
}

// Do is Get for a request the caller built; decode may be nil. The body is
// drained and closed before Do returns, so the connection is reused.
func Do(client *http.Client, req *http.Request, decode func(io.Reader) error) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		_ = resp.Body.Close() // read-only body
	}()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256)) // best effort: the status is the error
		return &StatusError{URL: req.URL.String(), Code: resp.StatusCode, Body: strings.TrimSpace(string(body))}
	}
	if decode == nil {
		return nil
	}
	return decode(resp.Body)
}
