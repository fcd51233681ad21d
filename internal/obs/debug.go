package obs

import (
	"expvar"
	"net/http"
	"net/http/pprof"

	"repro/internal/daemon"
)

// DebugMux returns a fresh mux serving the standard Go debug surface:
// /debug/pprof/ (profiles, heap, goroutine dumps) and /debug/vars
// (expvar). The daemons mount this on a separate listener behind a
// -debug-addr flag, off by default, so the production API surface never
// grows profiling endpoints by accident.
func DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// StartDebug serves DebugMux on addr ("" = disabled, returns (nil, nil)).
func StartDebug(addr string) (*daemon.Server, error) {
	return daemon.ListenAndServe(addr, DebugMux())
}

// MetricsMux returns a fresh mux serving the registry at /metrics — the
// standalone scrape surface for daemons without an API server of their own.
func MetricsMux(r *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	return mux
}
