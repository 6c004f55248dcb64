package server

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strings"
	"time"

	"repro/leqa/trace"
)

// This file is the per-request observability layer: every request through
// ServeHTTP gets a trace.Trace in its context (correlated by X-Request-Id /
// W3C traceparent, else a generated ID) whose spans also feed the server's
// metrics through its sink, an X-Request-Id response header, a
// Server-Timing header (or trailer, for streamed batches) carrying the
// per-phase span breakdown, a structured slog access log, panic recovery,
// a snapshot in the ring behind GET /debug/requests, and one accounting
// record in the per-endpoint metrics.

// observe wraps the route mux with the request observability middleware.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := trace.RequestID(r.Header.Get("X-Request-Id"), r.Header.Get("Traceparent"))
		tr := trace.New(id, s.sink)
		r = r.WithContext(trace.NewContext(r.Context(), tr))
		w.Header().Set("X-Request-Id", id)
		ow := &obsWriter{ResponseWriter: w, tr: tr}
		defer s.finishRequest(w, r, ow, tr)
		next.ServeHTTP(ow, r)
	})
}

// finishRequest runs after the handler (or its panic): it recovers panics
// into 500s, populates the Server-Timing trailer of streamed responses,
// snapshots the trace into the debug ring, records the request once —
// status, arrival → last byte duration and emitted rows — and writes the
// access log, so every surface reads the same numbers.
func (s *Server) finishRequest(w http.ResponseWriter, r *http.Request, ow *obsWriter, tr *trace.Trace) {
	p := recover()
	aborted := p != nil && p == http.ErrAbortHandler

	snap := tr.Capture()
	snap.Method, snap.Path = r.Method, r.URL.Path
	for _, pt := range snap.Totals {
		if pt.Name == trace.SpanEmit {
			snap.Rows = pt.Count
		}
	}
	switch {
	case aborted:
		// The NDJSON encoder cuts failed streams short by design
		// (http.ErrAbortHandler); the truncation is the signal, not a bug.
		snap.Error = "stream aborted"
	case p != nil:
		s.panics.Add(1)
		s.logger.LogAttrs(r.Context(), slog.LevelError, "panic in handler",
			slog.String("id", tr.ID()),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Any("panic", p),
			slog.String("stack", string(debug.Stack())),
		)
		snap.Error = "panic (see server log)"
		if ow.status == 0 {
			// Nothing was sent yet: the panic recovers into a well-formed
			// 500 and the connection survives.
			writeJSONError(ow, http.StatusInternalServerError, "internal error")
			p = nil
		}
	}
	snap.Status = ow.status

	// Streamed responses declared Server-Timing as a trailer before their
	// header went out; setting the field after WriteHeader populates it.
	if headerDeclaresTrailer(w.Header(), "Server-Timing") {
		if st := tr.ServerTiming(); st != "" {
			w.Header().Set("Server-Timing", st)
		}
	}
	s.ring.Add(snap)
	s.record(r, ow.status, snap.Rows, ow.bytes, time.Duration(snap.DurMs*float64(time.Millisecond)))

	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("id", tr.ID()),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", ow.status),
		slog.Float64("dur_ms", snap.DurMs),
		slog.Int("rows", snap.Rows),
		slog.String("remote", r.RemoteAddr),
	)
	if s.cfg.SlowRequest > 0 && snap.DurMs >= float64(s.cfg.SlowRequest.Milliseconds()) {
		s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow request",
			slog.String("id", tr.ID()),
			slog.String("path", r.URL.Path),
			slog.Float64("dur_ms", snap.DurMs),
			slog.String("breakdown", tr.Breakdown()),
		)
	}

	if p != nil {
		if aborted {
			panic(p) // net/http must still cut the connection short
		}
		// Mid-stream panic with the status long gone: truncate the
		// response so the client sees a transport error, not silence.
		panic(http.ErrAbortHandler)
	}
}

// obsWriter injects the Server-Timing header at WriteHeader time — by which
// point buffered (non-streaming) handlers have finished every pipeline
// phase — and remembers the status for the access log. Streaming handlers
// declare Server-Timing as a trailer instead (newRowEncoder), which
// suppresses the header-time injection.
type obsWriter struct {
	http.ResponseWriter
	tr     *trace.Trace
	status int
	wrote  bool
	bytes  int64
}

func (o *obsWriter) WriteHeader(code int) {
	if o.status == 0 {
		o.status = code
		h := o.Header()
		if h.Get("Server-Timing") == "" && !headerDeclaresTrailer(h, "Server-Timing") {
			if st := o.tr.ServerTiming(); st != "" {
				h.Set("Server-Timing", st)
			}
		}
	}
	o.ResponseWriter.WriteHeader(code)
}

func (o *obsWriter) Write(b []byte) (int, error) {
	if o.status == 0 {
		o.WriteHeader(http.StatusOK)
	}
	o.wrote = true
	n, err := o.ResponseWriter.Write(b)
	o.bytes += int64(n)
	return n, err
}

// Flush keeps the streaming row encoders seeing an http.Flusher.
func (o *obsWriter) Flush() {
	if f, ok := o.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// headerDeclaresTrailer reports whether h's Trailer field names the given
// trailer.
func headerDeclaresTrailer(h http.Header, name string) bool {
	for _, v := range h.Values("Trailer") {
		for _, f := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(f), name) {
				return true
			}
		}
	}
	return false
}

// handleDebugRequests serves the in-memory ring of recently finished request
// traces, newest first — the first stop when a specific request was slow.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Requests []trace.Snapshot `json:"requests"`
	}{s.ring.Snapshots()})
}

// registerPprof mounts the net/http/pprof surfaces (profiles, heap, and
// runtime/trace capture at /debug/pprof/trace) on mux.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// DebugHandler serves the debug surfaces — request traces and pprof —
// independent of the API mux, for a separate private listener
// (cmd/leqad -debug-addr). Always includes pprof: binding a dedicated
// debug address is itself the opt-in.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.HandleFunc("GET /debug/clients", s.handleDebugClients)
	registerPprof(mux)
	return mux
}
