// Package server exposes the netlist registry and job manager over an
// HTTP/JSON API — the long-running front of the detection engine.
//
// Routes (all JSON unless noted):
//
//	POST   /v1/netlists                    upload a raw .tfnet/.tfb payload → NetlistInfo
//	GET    /v1/netlists                    list registry entries
//	GET    /v1/netlists/{digest}           one entry's metadata
//	POST   /v1/netlists/{digest}/deltas    apply a JSON delta → DeltaResult (child entry)
//	POST   /v1/jobs                        submit a JobRequest → JobStatus
//	GET    /v1/jobs                list retained jobs, newest first
//	GET    /v1/jobs/{id}           one job's status (+result when done)
//	DELETE /v1/jobs/{id}           cancel a job
//	GET    /v1/jobs/{id}/events    Server-Sent Events progress stream
//	GET    /v1/stats               job + registry statistics
//	GET    /v1/healthz             liveness probe (plain "ok")
//	GET    /metrics                Prometheus text exposition
//
// Every response carries an X-Request-ID header (honoring the
// client's, minting one otherwise); the same ID is attached to the
// submitted job and every structured log record the request produces.
//
// Error responses carry api.ErrorResponse bodies; submission
// backpressure surfaces as 429 with a Retry-After hint.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"tanglefind/api"
	"tanglefind/internal/jobs"
	"tanglefind/internal/store"
	"tanglefind/internal/telemetry"
)

// maxUploadBytes bounds one netlist payload; a 256 MiB .tfb holds
// ~60M pins, far past the paper's largest circuits.
const maxUploadBytes = 256 << 20

// Server routes API traffic to a registry and a job manager. Graceful
// shutdown is composed by the owner: http.Server.Shutdown to stop
// traffic, then Manager.Shutdown to drain jobs.
type Server struct {
	store *store.Store
	mgr   *jobs.Manager
	mux   *http.ServeMux
	log   *slog.Logger
	reg   *telemetry.Registry

	httpSeconds *telemetry.HistogramVec
}

// Option configures a Server at construction.
type Option func(*Server)

// WithLogger routes request and lifecycle records to l. The default
// discards them.
func WithLogger(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// New wires the routes. The server registers its HTTP and registry
// metrics in the manager's telemetry registry so GET /metrics covers
// all three layers.
func New(st *store.Store, mgr *jobs.Manager, opts ...Option) *Server {
	s := &Server{
		store: st,
		mgr:   mgr,
		mux:   http.NewServeMux(),
		log:   slog.New(slog.DiscardHandler),
		reg:   mgr.Registry(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.registerMetrics()
	s.mux.HandleFunc("POST /v1/netlists", s.handleUpload)
	s.mux.HandleFunc("GET /v1/netlists", s.handleNetlists)
	s.mux.HandleFunc("GET /v1/netlists/{digest}", s.handleNetlist)
	s.mux.HandleFunc("POST /v1/netlists/{digest}/deltas", s.handleDelta)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// registerMetrics declares the server's families: request latency by
// route, plus scrape-time mirrors of the registry's memory state (the
// same numbers GET /v1/stats reports under "store").
func (s *Server) registerMetrics() {
	s.httpSeconds = s.reg.HistogramVec("gtl_http_request_seconds",
		"HTTP request latency in seconds by matched route pattern and status code.",
		nil, "route", "status")
	netlists := s.reg.Gauge("gtl_store_netlists_loaded", "Netlists currently resident in the registry.")
	tombstones := s.reg.Gauge("gtl_store_tombstones", "Evicted netlists whose metadata is retained.")
	pinsLoaded := s.reg.Gauge("gtl_store_pins_loaded", "Total pins across resident netlists.")
	pinBudget := s.reg.Gauge("gtl_store_pin_budget", "Registry eviction threshold in pins; 0 means unlimited.")
	engineBytes := s.reg.Gauge("gtl_store_engine_bytes", "Estimated memory retained by cached finder engines beyond the netlists.")
	evictions := s.reg.Counter("gtl_store_evictions_total", "Netlists evicted from the registry since process start.")
	durable := s.reg.Gauge("gtl_store_durable", "1 when the registry persists to a data directory, 0 for in-memory serving.")
	recovered := s.reg.Gauge("gtl_store_recovered_netlists", "Netlists recovered from the journal at startup.")
	recoveredResults := s.reg.Gauge("gtl_store_recovered_results", "Journaled job results recovered at startup (rewarmed into the result cache).")
	lazyReloads := s.reg.Counter("gtl_store_lazy_reloads_total", "Netlists re-parsed on demand from the blob store (recovered or evicted entries touched again).")
	truncated := s.reg.Gauge("gtl_store_journal_truncated_bytes", "Torn journal tail bytes discarded by the last replay.")
	s.reg.OnScrape(func() {
		st := s.store.Stats()
		netlists.Set(float64(st.Netlists))
		tombstones.Set(float64(st.Tombstones))
		pinsLoaded.Set(float64(st.PinsLoaded))
		pinBudget.Set(float64(st.PinBudget))
		engineBytes.Set(float64(st.EngineBytes))
		evictions.Set(float64(st.Evictions))
		if st.Durable {
			durable.Set(1)
		} else {
			durable.Set(0)
		}
		recovered.Set(float64(st.RecoveredNetlists))
		recoveredResults.Set(float64(st.RecoveredResults))
		lazyReloads.Set(float64(st.LazyReloads))
		truncated.Set(float64(st.JournalTruncatedBytes))
	})
}

// ctxKey namespaces request-scoped context values.
type ctxKey int

const ridKey ctxKey = iota

// newRequestID mints a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unidentified" // crypto/rand failing means bigger problems
	}
	return hex.EncodeToString(b[:])
}

// Handler returns the routed http.Handler wrapped in the telemetry
// middleware: request-ID assignment (honoring X-Request-ID), the
// route-labeled latency histogram, and one structured record per
// request.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := r.Header.Get("X-Request-ID")
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(context.WithValue(r.Context(), ridKey, rid))
		// Label by the mux pattern, not the raw path: bounded metric
		// cardinality no matter what paths clients probe.
		_, route := s.mux.Handler(r)
		if route == "" {
			route = "unmatched"
		}
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		s.mux.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		s.httpSeconds.With(route, strconv.Itoa(sw.code())).Observe(elapsed.Seconds())
		s.log.Info("http request",
			"method", r.Method, "path", r.URL.Path, "route", route,
			"status", sw.code(),
			"duration_ms", float64(elapsed)/float64(time.Millisecond),
			"request_id", rid)
	})
}

// statusWriter records the response code for the latency labels. It
// implements http.Flusher unconditionally so the SSE handler's
// Flusher assertion keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (w *statusWriter) code() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// handleMetrics serves the Prometheus text exposition for all three
// layers (server, jobs, store — they share one registry).
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("payload exceeds %d bytes", mbe.Limit))
		} else {
			// A mid-stream read failure (client hung up) is not an
			// oversize payload.
			writeError(w, http.StatusBadRequest, fmt.Errorf("read payload: %w", err))
		}
		return
	}
	if len(data) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty payload"))
		return
	}
	info, err := s.store.Ingest(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleNetlists(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.store.List())
}

func (s *Server) handleNetlist(w http.ResponseWriter, r *http.Request) {
	info, ok := s.store.Info(r.PathValue("digest"))
	if !ok {
		writeError(w, http.StatusNotFound, store.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleDelta applies a JSON delta document against the parent digest
// in the path, registering the patched netlist under its own content
// address. 404/410 report a missing/evicted parent; a malformed or
// inapplicable delta is 400.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxUploadBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("delta exceeds %d bytes", mbe.Limit))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("read delta: %w", err))
		}
		return
	}
	res, err := s.store.ApplyDelta(r.PathValue("digest"), body)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNotFound):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, store.ErrEvicted):
			writeError(w, http.StatusGone, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, res)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse job request: %w", err))
		return
	}
	// The submitting request's ID travels with the job; any client-set
	// field value is overridden by the header-derived ID.
	if rid, ok := r.Context().Value(ridKey).(string); ok {
		req.RequestID = rid
	}
	st, err := s.mgr.Submit(req)
	if err != nil {
		writeError(w, submitStatusCode(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// submitStatusCode maps the manager's typed failures onto HTTP.
func submitStatusCode(err error) int {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrEvicted):
		// The digest is known but its payload is gone: the client must
		// re-upload, which 410 states more precisely than 404.
		return http.StatusGone
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's progress as Server-Sent Events: one
// `data: <api.Event JSON>` frame per state/progress change, starting
// with a snapshot, ending after the terminal event (or when the
// client goes away).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	events, unsub, err := s.mgr.Subscribe(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer unsub()
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		select {
		case ev, open := <-events:
			if !open {
				return
			}
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
				return
			}
			fl.Flush()
			if ev.State.Terminal() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, api.ServerStats{
		Jobs:  s.mgr.Stats(),
		Store: s.store.Stats(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, api.ErrorResponse{Error: err.Error()})
}
