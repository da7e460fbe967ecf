package shard

import (
	"fmt"
	"net/http"

	"pstlbench/internal/serve"
)

// Handler returns the router's HTTP API — a single serve.Server's job
// surface, built from serve's own request decoder, submit-error contract,
// and JSON writers, with shard placement visible in every JobInfo and a
// per-shard breakdown in /stats:
//
//	POST   /jobs      submit a job   -> 202 JobInfo | 429 (saturated) | 503 (closed or no live shard) | 400
//	GET    /jobs/{id} job status     -> 200 JobInfo | 404
//	DELETE /jobs/{id} cancel a job   -> 200 JobInfo | 404
//	GET    /stats     router stats   -> 200 Stats
//	GET    /healthz   readiness      -> 200 HealthInfo | 503 (closed or no healthy shard)
//	POST   /cluster/join  add a worker to the ring -> 200 (when Config.Join set)
//	GET    /metrics   Prometheus text exposition (when Config.Metrics set)
//	GET    /spans     terminal job lifecycle spans (when Config.Spans set)
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", r.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", r.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", r.handleCancel)
	mux.HandleFunc("GET /stats", r.handleStats)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	if r.cfg.Join != nil {
		mux.HandleFunc("POST /cluster/join", r.handleJoin)
	}
	if r.cfg.Metrics != nil {
		mux.Handle("GET /metrics", serve.MetricsHandler(r.cfg.Metrics))
	}
	if r.cfg.Spans != nil {
		mux.Handle("GET /spans", serve.SpansHandler(r.cfg.Spans))
	}
	return mux
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var body serve.SubmitRequest
	if !serve.ReadJSON(w, req, &body) {
		return
	}
	j, err := r.Submit(body.Spec())
	if err != nil {
		serve.WriteSubmitError(w, err)
		return
	}
	info, _ := r.Get(j.ID())
	serve.WriteJSON(w, http.StatusAccepted, info)
}

func (r *Router) handleGet(w http.ResponseWriter, req *http.Request) {
	info, ok := r.Get(req.PathValue("id"))
	if !ok {
		serve.WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	serve.WriteJSON(w, http.StatusOK, info)
}

func (r *Router) handleCancel(w http.ResponseWriter, req *http.Request) {
	info, err := r.Cancel(req.PathValue("id"))
	if err != nil {
		serve.WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	serve.WriteJSON(w, http.StatusOK, info)
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	serve.WriteJSON(w, http.StatusOK, r.Stats())
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	h := r.Health()
	status := http.StatusOK
	if !h.OK {
		// A probe keys on the status code; the body still carries the why.
		status = http.StatusServiceUnavailable
	}
	serve.WriteJSON(w, status, h)
}

// JoinRequest is the POST /cluster/join body: the base URL the router
// should dial the joining worker at.
type JoinRequest struct {
	URL string `json:"url"`
}

// JoinResponse acknowledges a join with the new member's shard index.
type JoinResponse struct {
	Shard int `json:"shard"`
}

func (r *Router) handleJoin(w http.ResponseWriter, req *http.Request) {
	var body JoinRequest
	if !serve.ReadJSON(w, req, &body) {
		return
	}
	if body.URL == "" {
		serve.WriteError(w, http.StatusBadRequest, "url required")
		return
	}
	r.joinMu.Lock()
	defer r.joinMu.Unlock()
	// Idempotent join: a worker whose first join succeeded but whose
	// response was lost retries — it must get its existing membership
	// back, not a duplicate ring member.
	r.mu.Lock()
	if i, ok := r.joined[body.URL]; ok {
		r.mu.Unlock()
		serve.WriteJSON(w, http.StatusOK, JoinResponse{Shard: i})
		return
	}
	r.mu.Unlock()
	h, err := r.cfg.Join(body.URL)
	if err != nil {
		serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("cannot reach worker: %v", err))
		return
	}
	// Probe before committing: a ring member that never answered anything
	// would immediately walk the suspect->dead path and churn the ring.
	if err := h.Ping(); err != nil {
		h.Close()
		serve.WriteError(w, http.StatusBadGateway, fmt.Sprintf("worker not healthy: %v", err))
		return
	}
	i, err := r.AddShard(h)
	if err != nil {
		h.Close()
		serve.WriteError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	r.mu.Lock()
	r.joined[body.URL] = i
	r.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, JoinResponse{Shard: i})
}
