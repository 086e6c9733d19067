package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs/journal"
)

// journal.go — the HTTP face of the job journal. GET /debug/jobs lists
// flight records (filter by status/engine/since, newest first, bounded),
// GET /debug/jobs/{id} serves one record with its retained event log, and
// GET /debug/jobs/{id}/events streams the live lifecycle as Server-Sent
// Events (resumable via Last-Event-ID). The journal's own counters are
// rpstacks_journal_* families on /metrics.

// handleDebugJobs lists journal records. Query parameters: status, engine,
// since (RFC 3339), limit.
func (s *Server) handleDebugJobs(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		errJSON(w, http.StatusNotFound, "job journal is disabled")
		return
	}
	q := journal.Query{
		Status: r.URL.Query().Get("status"),
		Engine: r.URL.Query().Get("engine"),
	}
	if v := r.URL.Query().Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			errJSON(w, http.StatusBadRequest, "bad since %q: %v (want RFC 3339)", v, err)
			return
		}
		q.Since = t
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			errJSON(w, http.StatusBadRequest, "bad limit %q (want a positive integer)", v)
			return
		}
		q.Limit = n
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.journal.List(q)})
}

// handleDebugJob serves one flight record, retained event log included —
// from memory while the job lives, from the durable store after a restart.
func (s *Server) handleDebugJob(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		errJSON(w, http.StatusNotFound, "job journal is disabled")
		return
	}
	id := r.PathValue("id")
	rec, ok := s.journal.Get(id)
	if !ok {
		errJSON(w, http.StatusNotFound, "no journal record for job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// handleDebugJobEvents streams a job's lifecycle as Server-Sent Events:
// queued → running → progress → fleet → done, each frame carrying the
// journal's Event JSON as its data line and the monotonic sequence number as
// its SSE id. A reconnecting client sends Last-Event-ID (or ?after=N) and
// replays exactly what it missed — from the retained log, or from the
// persisted record after a restart. The stream ends after the terminal
// event, or when the client disconnects.
func (s *Server) handleDebugJobEvents(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		errJSON(w, http.StatusNotFound, "job journal is disabled")
		return
	}
	id := r.PathValue("id")
	var after uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			errJSON(w, http.StatusBadRequest, "bad Last-Event-ID %q", v)
			return
		}
		after = n
	}
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			errJSON(w, http.StatusBadRequest, "bad after %q", v)
			return
		}
		after = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		errJSON(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	sub, ok := s.journal.Subscribe(id, after)
	if !ok {
		errJSON(w, http.StatusNotFound, "no journal record for job %q", id)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	for {
		select {
		case ev, open := <-sub.C:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}
