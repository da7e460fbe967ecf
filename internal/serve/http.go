package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"pstlbench/internal/obs"
)

// SubmitRequest is the POST /jobs body.
type SubmitRequest struct {
	// ID, when set, is a caller-assigned job identifier (see Spec.ID); a
	// resubmission with a known ID returns the existing job, which makes
	// transport-level submit retries safe.
	ID     string `json:"id,omitempty"`
	Kernel string `json:"kernel"`
	N      int    `json:"n"`
	Tenant string `json:"tenant,omitempty"`
	// DeadlineMS bounds the job's total time in the server, milliseconds.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// DeadlineUnixMS, when set, is the absolute deadline as a Unix
	// timestamp in milliseconds and takes precedence over DeadlineMS, so
	// transport latency tightens the budget instead of extending it.
	DeadlineUnixMS int64 `json:"deadline_unix_ms,omitempty"`
}

// WithdrawRequest is the POST /withdraw body.
type WithdrawRequest struct {
	// Max bounds how many queued jobs to withdraw.
	Max int `json:"max"`
}

// WithdrawResponse is the POST /withdraw reply: the IDs of the jobs taken
// off the queue. The router resubmits each from the spec it kept.
type WithdrawResponse struct {
	IDs []string `json:"ids"`
}

// PollRequest is the POST /jobs/poll body: a batch status query, one RPC
// per poll cycle regardless of how many jobs are in flight.
type PollRequest struct {
	IDs []string `json:"ids"`
}

// PollResponse is the POST /jobs/poll reply. Missing lists IDs the server
// no longer knows — evicted or lost to a restart — which the caller must
// treat as gone, not pending.
type PollResponse struct {
	Jobs    []JobInfo `json:"jobs"`
	Missing []string  `json:"missing,omitempty"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 responses (also sent as the standard
	// Retry-After header, in whole seconds).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Handler returns the server's HTTP API:
//
//	POST   /jobs      submit a job   -> 202 JobInfo | 429 (saturated) | 503 (closed) | 400
//	GET    /jobs/{id} job status     -> 200 JobInfo | 404
//	DELETE /jobs/{id} cancel a job   -> 200 JobInfo | 404
//	GET    /stats     server stats   -> 200 Stats
//	GET    /healthz   liveness + load -> 200 HealthInfo
//	POST   /jobs/poll batch job status -> 200 PollResponse
//	POST   /withdraw  withdraw queued jobs for migration -> 200 WithdrawResponse
//	GET    /metrics   Prometheus text exposition of the server's instruments
//	GET    /spans     terminal job lifecycle spans (when Config.Spans set)
//
// /healthz, /jobs/poll, and /withdraw form the worker surface a shard
// router drives over internal/cluster when this server runs as a separate
// `pstld -worker` process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("POST /jobs/poll", s.handlePoll)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("POST /withdraw", s.handleWithdraw)
	mux.Handle("GET /metrics", MetricsHandler(s.metrics))
	if s.spans != nil {
		mux.Handle("GET /spans", SpansHandler(s.spans))
	}
	return mux
}

// MetricsHandler serves a registry in the Prometheus text exposition
// format — shared by the standalone server and the shard router.
func MetricsHandler(reg *obs.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
}

// SpansHandler serves the span log's surviving terminal spans, oldest
// first, as a JSON array of obs.SpanInfo.
func SpansHandler(log *obs.SpanLog) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		spans := log.Spans()
		out := make([]obs.SpanInfo, len(spans))
		for i, sp := range spans {
			out[i] = sp.Info()
		}
		WriteJSON(w, http.StatusOK, out)
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	j, err := s.Submit(req.Spec())
	if err != nil {
		WriteSubmitError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, s.Info(j))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	info, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.Health()
	status := http.StatusOK
	if !h.OK {
		status = http.StatusServiceUnavailable
	}
	WriteJSON(w, status, h)
}

func (s *Server) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	resp := PollResponse{Jobs: make([]JobInfo, 0, len(req.IDs))}
	for _, id := range req.IDs {
		if info, ok := s.Get(id); ok {
			resp.Jobs = append(resp.Jobs, info)
		} else {
			resp.Missing = append(resp.Missing, id)
		}
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWithdraw(w http.ResponseWriter, r *http.Request) {
	var req WithdrawRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.Max < 1 {
		WriteError(w, http.StatusBadRequest, "max must be >= 1")
		return
	}
	jobs := s.WithdrawQueued(req.Max)
	resp := WithdrawResponse{IDs: make([]string, len(jobs))}
	for i, j := range jobs {
		resp.IDs[i] = j.ID()
	}
	WriteJSON(w, http.StatusOK, resp)
}

// Spec is the one POST /jobs body -> Spec conversion every job surface
// shares; an absolute DeadlineUnixMS takes precedence over DeadlineMS.
func (req SubmitRequest) Spec() Spec {
	spec := Spec{
		ID:       req.ID,
		Kernel:   req.Kernel,
		N:        req.N,
		Tenant:   req.Tenant,
		Deadline: time.Duration(req.DeadlineMS) * time.Millisecond,
	}
	if req.DeadlineUnixMS > 0 {
		spec.DeadlineAt = time.UnixMilli(req.DeadlineUnixMS)
	}
	return spec
}

// WriteSubmitError answers a rejected submission under Submit's error
// contract: 429 with a Retry-After hint for saturation, 503 for ErrClosed
// (and any error that matches it), 400 for an invalid spec.
func WriteSubmitError(w http.ResponseWriter, err error) {
	var sat *SaturatedError
	switch {
	case errors.As(err, &sat):
		// Backpressure: tell the client when to come back instead of
		// queueing unboundedly.
		secs := max(int64((sat.RetryAfter+time.Second-1)/time.Second), 1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		WriteJSON(w, http.StatusTooManyRequests, errorBody{
			Error:        err.Error(),
			RetryAfterMS: sat.RetryAfter.Milliseconds(),
		})
	case errors.Is(err, ErrClosed):
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
	}
}

// MaxBodyBytes bounds every JSON request body, so one oversized POST
// cannot exhaust the daemon's memory.
const MaxBodyBytes = 4 << 20

// ReadJSON decodes a request body into v. It answers 413 and returns false
// when the body exceeds MaxBodyBytes, and 400 when it is not valid JSON
// for v.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, fmt.Sprintf("bad request body: %v", err))
	return false
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError writes the JSON error envelope {"error": msg}.
func WriteError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorBody{Error: msg})
}
