package rollout

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestHTTPActuatorReusesConnection: with Client nil, SetShare goes through
// the shared client, so three actuations ride one keep-alive connection.
func TestHTTPActuatorReusesConnection(t *testing.T) {
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"share":0.5}`)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	act := &HTTPActuator{URL: srv.URL + "/share"}
	for _, share := range []float64{0.01, 0.05, 0.25} {
		if err := act.SetShare(context.Background(), share); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("three actuations opened %d connections, want 1", n)
	}
}
