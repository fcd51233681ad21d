package obswatch

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/daemon"
)

// handler builds the watcher's stdlib-only HTTP API:
//
//	GET /healthz  liveness + uptime + targets-up count
//	GET /status   scrape health per target, rule table, alert/incident tallies
//	GET /alerts   live alert instances (pending and firing), sorted
//	GET /series   retained time series (?target=NAME and ?prefix=P filter)
//	GET /metrics  the watcher's own Prometheus text
func (w *Watcher) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", w.handleHealthz)
	mux.HandleFunc("/status", w.handleStatus)
	mux.HandleFunc("/alerts", w.handleAlerts)
	mux.HandleFunc("/series", w.handleSeries)
	mux.HandleFunc("/metrics", func(rw http.ResponseWriter, r *http.Request) {
		w.reg.Handler().ServeHTTP(rw, r)
	})
	return mux
}

func (w *Watcher) handleHealthz(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	up := 0
	for i := range w.tstat {
		if w.tstat[i].up {
			up++
		}
	}
	firing := 0
	for _, st := range w.alerts {
		if st.firing {
			firing++
		}
	}
	w.mu.Unlock()
	rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
	uptime := w.cfg.Clock.Now().Sub(w.start)
	fmt.Fprintf(rw, "ok uptime=%s targets=%d/%d firing=%d\n",
		uptime.Round(time.Millisecond), up, len(w.cfg.Targets), firing)
}

// TargetStatus is one target's row in the /status payload.
type TargetStatus struct {
	Name                string `json:"name"`
	Kind                string `json:"kind"`
	URL                 string `json:"url"`
	Up                  bool   `json:"up"`
	LastScrapeUnixMilli int64  `json:"last_scrape_unix_milli"`
	LastError           string `json:"last_error,omitempty"`
	Scrapes             int64  `json:"scrapes"`
	ScrapeErrors        int64  `json:"scrape_errors"`
	Series              int    `json:"series"`
}

// Status is the /status payload.
type Status struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Ticks         int64          `json:"ticks"`
	Targets       []TargetStatus `json:"targets"`
	Rules         []Rule         `json:"rules"`
	AlertsPending int            `json:"alerts_pending"`
	AlertsFiring  int            `json:"alerts_firing"`
	Incidents     int64          `json:"incidents"`
}

// StatusNow assembles the current /status payload.
func (w *Watcher) StatusNow() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Status{
		UptimeSeconds: w.cfg.Clock.Now().Sub(w.start).Seconds(),
		Ticks:         w.ticks,
		Rules:         w.cfg.Rules,
		Incidents:     w.incidentSeq,
		Targets:       make([]TargetStatus, len(w.cfg.Targets)),
	}
	for i, t := range w.cfg.Targets {
		ts := &w.tstat[i]
		row := TargetStatus{
			Name: t.Name, Kind: t.Kind, URL: t.URL,
			Up:        ts.up,
			LastError: ts.lastErr,
			Scrapes:   ts.scrapes, ScrapeErrors: ts.scrapeErrors,
			Series: len(w.series[t.Name]),
		}
		if !ts.lastScrape.IsZero() {
			row.LastScrapeUnixMilli = ts.lastScrape.UnixMilli()
		}
		st.Targets[i] = row
	}
	for _, a := range w.alerts {
		if a.firing {
			st.AlertsFiring++
		} else {
			st.AlertsPending++
		}
	}
	return st
}

func (w *Watcher) handleStatus(rw http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(rw, w.StatusNow())
}

func (w *Watcher) handleAlerts(rw http.ResponseWriter, r *http.Request) {
	daemon.WriteJSON(rw, w.Alerts())
}

// handleSeries dumps the retained ring buffers as target → series →
// samples. Go's JSON encoder sorts map keys, so the payload is a pure
// function of the retained samples.
func (w *Watcher) handleSeries(rw http.ResponseWriter, r *http.Request) {
	targetFilter := r.URL.Query().Get("target")
	prefix := r.URL.Query().Get("prefix")
	w.mu.Lock()
	out := make(map[string]map[string][]Sample, len(w.series))
	for target, m := range w.series {
		if targetFilter != "" && target != targetFilter {
			continue
		}
		rows := make(map[string][]Sample)
		for key, s := range m {
			if prefix != "" && !strings.HasPrefix(key, prefix) {
				continue
			}
			rows[key] = s.Samples()
		}
		if len(rows) > 0 {
			out[target] = rows
		}
	}
	w.mu.Unlock()
	daemon.WriteJSON(rw, out)
}
