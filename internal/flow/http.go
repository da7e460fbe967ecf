package flow

import (
	"net/http"
	"time"

	"pstlbench/internal/serve"
)

// IngestRequest is the POST /streams/{stream}/events body. Events with a
// zero timestamp are stamped with the server's wall clock at ingest.
type IngestRequest struct {
	Events []Event `json:"events"`
}

// IngestResponse reports the per-status split of one ingest batch.
type IngestResponse struct {
	Accepted int64 `json:"accepted"`
	Late     int64 `json:"late"`
	Paused   int64 `json:"paused"`
}

// Handler returns the engine's HTTP ingest surface:
//
//	POST /streams/{stream}/events push an event batch -> 200 IngestResponse
//	                              | 404 | 429 (whole batch paused)
//	GET  /streams                 per-stream stats     -> 200 []StreamStats
//	GET  /streams/{stream}        one stream's stats   -> 200 StreamStats | 404
//	GET  /healthz                 readiness            -> 200
//
// A 429 carries Retry-After: the pause backpressure policy, surfaced to
// remote sources the same way serve's admission control surfaces
// saturation to job clients.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /streams/{stream}/events", e.handleIngest)
	mux.HandleFunc("GET /streams", func(w http.ResponseWriter, req *http.Request) {
		serve.WriteJSON(w, http.StatusOK, e.Stats())
	})
	mux.HandleFunc("GET /streams/{stream}", func(w http.ResponseWriter, req *http.Request) {
		s := e.Stream(req.PathValue("stream"))
		if s == nil {
			serve.WriteError(w, http.StatusNotFound, "no such stream")
			return
		}
		serve.WriteJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		serve.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "streams": len(e.Streams())})
	})
	return mux
}

func (e *Engine) handleIngest(w http.ResponseWriter, req *http.Request) {
	s := e.Stream(req.PathValue("stream"))
	if s == nil {
		serve.WriteError(w, http.StatusNotFound, "no such stream")
		return
	}
	var body IngestRequest
	if !serve.ReadJSON(w, req, &body) {
		return
	}
	var resp IngestResponse
	now := time.Now().UnixNano()
	for _, ev := range body.Events {
		if ev.TS == 0 {
			ev.TS = now
		}
		switch s.Push(ev) {
		case PushAccepted:
			resp.Accepted++
		case PushLate:
			resp.Late++
		case PushPaused:
			resp.Paused++
		}
	}
	status := http.StatusOK
	if resp.Paused > 0 && resp.Accepted == 0 && resp.Late == 0 && len(body.Events) > 0 {
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	}
	serve.WriteJSON(w, status, resp)
}
