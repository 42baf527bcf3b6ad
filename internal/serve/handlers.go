package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/pprof"
	"strings"

	"asbr/internal/experiment"
)

// Handler returns the daemon's full HTTP handler: the route table
// wrapped in the metrics middleware.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/sim", s.handleSim)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleGetJobTrace)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s.instrument(mux)
}

// statusRecorder captures the response status for the request metric.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument tracks in-flight and per-route request counters around
// every request. The route label collapses /v1/jobs/{id} so metric
// cardinality stays bounded by the route table.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.met.inFlight.Add(1)
		defer s.met.inFlight.Add(-1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		route := r.URL.Path
		switch {
		case strings.HasPrefix(route, "/v1/jobs/") && strings.HasSuffix(route, "/trace"):
			route = "/v1/jobs/{id}/trace"
		case strings.HasPrefix(route, "/v1/jobs/"):
			route = "/v1/jobs/{id}"
		case strings.HasPrefix(route, "/debug/pprof/"):
			route = "/debug/pprof/"
		}
		s.met.observeRequest(route, rec.status)
	})
}

// decode reads a bounded, strict JSON body into v.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("invalid request body: %v", err)
	}
	return nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

// errorEnvelope is the uniform error wrapper: {"error": {...}}.
type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// retryAfterSeconds is the Retry-After hint sent with transient
// rejections (429 backpressure, 503 draining/not-ready). One second is
// the queue-drain horizon for typical simulations; clients treat it as
// a floor for their jittered backoff, not a promise.
const retryAfterSeconds = "1"

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, body := toHTTP(err)
	if status >= http.StatusInternalServerError {
		s.logf("internal error: %v", err)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		// Transient rejection: tell well-behaved clients when to come
		// back instead of letting them hammer the full queue.
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	s.met.observeError(body.Code)
	s.writeJSON(w, status, errorEnvelope{Error: body})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, Healthz{
		Status:        status,
		QueueDepth:    s.QueueLen(),
		QueueCapacity: cap(s.tasks),
		Workers:       s.cfg.Workers,
	})
}

// handleReadyz is the readiness probe, distinct from liveness: a
// daemon that is draining or whose bounded queue is saturated answers
// 503 so cluster coordinators stop routing new work to it, while
// /v1/healthz keeps answering 200 for as long as the process lives.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	ready := s.Ready()
	code := http.StatusOK
	if !ready {
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	s.writeJSON(w, code, Readyz{
		Ready:         ready,
		Status:        s.readyStatus(),
		WorkerID:      s.cfg.WorkerID,
		QueueDepth:    s.QueueLen(),
		QueueCapacity: cap(s.tasks),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

func (s *Server) handleSim(w http.ResponseWriter, r *http.Request) {
	var req SimRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := normalizeSim(&req, s.cfg); err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := admit(s, &s.sims, req.Key(), func() (*SimResponse, error) { return s.simulate(&req, nil) })
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := normalizeSweep(&req, s.cfg); err != nil {
		s.writeError(w, err)
		return
	}
	tabs, err := admit(s, &s.sweeps, req.Key(), func() (*experiment.TablesJSON, error) { return s.runSweep(&req) })
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, tabs)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := s.decode(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	job, err := s.submitJob(&req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, job)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.job(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleGetJobTrace(w http.ResponseWriter, r *http.Request) {
	t, err := s.jobTrace(r.PathValue("id"))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, t)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.serviceStats())
}

// isAPIError reports whether err is a service-level error with the
// given code (used by tests and the client's retry logic).
func isAPIError(err error, code string) bool {
	var ae *apiError
	return errors.As(err, &ae) && ae.body.Code == code
}
