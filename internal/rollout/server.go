package rollout

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/abtest"
	"repro/internal/daemon"
)

// Status is the /status payload: the controller's full current view. Under
// a fixed clock it is a pure function of the gate history, which is what
// the checkpoint/resume tests pin — a restarted controller must render the
// byte-identical status it would have rendered uninterrupted.
type Status struct {
	Candidate    string                 `json:"candidate"`
	Baseline     string                 `json:"baseline"`
	Objective    Objective              `json:"objective"`
	Estimator    string                 `json:"estimator"`
	Stage        Stage                  `json:"stage"`
	Share        float64                `json:"share"`
	CanaryShares []float64              `json:"canary_shares"`
	Polls        int64                  `json:"polls"`
	Gates        int64                  `json:"gates"`
	StageSamples int64                  `json:"stage_samples"`
	CandidateN   int64                  `json:"candidate_n"`
	BaselineN    int64                  `json:"baseline_n"`
	Sequential   abtest.SequentialState `json:"sequential"`
	LastOutcome  Outcome                `json:"last_outcome,omitempty"`
	LastReason   string                 `json:"last_reason,omitempty"`
	Transitions  []StageTransition      `json:"transitions"`
}

// StatusNow assembles the current Status.
func (c *Controller) StatusNow() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Candidate:    c.cfg.Candidate,
		Baseline:     c.cfg.Baseline,
		Objective:    c.cfg.Objective,
		Estimator:    c.cfg.Estimator,
		Stage:        c.stage,
		Share:        c.share(),
		CanaryShares: append([]float64(nil), c.cfg.CanaryShares...),
		Polls:        c.polls,
		Gates:        c.gateSeq,
		StageSamples: c.lastCand.N - c.stageEnteredN,
		CandidateN:   c.lastCand.N,
		BaselineN:    c.lastBase.N,
		Sequential:   c.seq.State(),
		Transitions:  append([]StageTransition{}, c.transitions...),
	}
	if n := len(c.gates); n > 0 {
		st.LastOutcome = c.gates[n-1].Outcome
		st.LastReason = c.gates[n-1].Reason
	}
	return st
}

// handler builds the controller's stdlib-only HTTP API:
//
//	GET /healthz  liveness + stage + uptime
//	GET /status   full controller state (see Status)
//	GET /gates    every retained gate decision, evaluation order
//	GET /history  stage transitions taken, oldest first
//	GET /metrics  Prometheus text via the obs registry
func (c *Controller) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", getOnly(c.handleHealthz))
	mux.HandleFunc("/status", getOnly(func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, c.StatusNow())
	}))
	mux.HandleFunc("/gates", getOnly(func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, c.Gates())
	}))
	mux.HandleFunc("/history", getOnly(func(w http.ResponseWriter, r *http.Request) {
		daemon.WriteJSON(w, c.Transitions())
	}))
	mux.HandleFunc("/metrics", getOnly(func(w http.ResponseWriter, r *http.Request) {
		c.obsReg.Handler().ServeHTTP(w, r)
	}))
	return mux
}

// getOnly rejects mutating methods on the read-only API with 405, matching
// harvestd's convention.
func getOnly(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (c *Controller) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	stage := c.stage
	uptime := c.cfg.Clock.Now().Sub(c.start)
	c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok stage=%s uptime=%s\n", stage, uptime.Round(time.Millisecond))
}
