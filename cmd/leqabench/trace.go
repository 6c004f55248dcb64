package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call. Spans of one op share Op; Parent is 0 for a
// root. Times are nanoseconds since the log started. Pool > 1 marks a span
// whose children ran at once on that many goroutines; Gang is the shard or
// sweep gang the call could fan out to.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cells  int    `json:"cells,omitempty"`
	Gates  int    `json:"gates,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Nodes  int    `json:"nodes,omitempty"`
	K      int    `json:"k,omitempty"`
	Pool   int    `json:"pool,omitempty"`
	Gang   int    `json:"gang,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	base  time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) newID() int64         { return l.ids.Add(1) }
func (l *spanLog) at(t time.Time) int64 { return int64(t.Sub(l.base)) }

func (l *spanLog) add(s ...span) {
	l.mu.Lock()
	l.spans = append(l.spans, s...)
	l.mu.Unlock()
}

// spanHeader carries "<op>.<client span>" from a traced client call to the
// server-side span, which records it as its parent.
const spanHeader = "Leqabench-Span"

type spanKey struct{}

// spanTransport sets spanHeader on requests whose context carries a span.
type spanTransport struct{ base http.RoundTripper }

func (t spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if v, ok := r.Context().Value(spanKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, v)
	}
	return t.base.RoundTrip(r)
}

// tracingHandler wraps (*server.Server).ServeHTTP; while a log is set it
// records one server.serve span per request.
type tracingHandler struct {
	next http.Handler
	log  atomic.Pointer[spanLog]
}

func (h *tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	log := h.log.Load()
	if log == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	t1 := time.Now()
	opStr, parentStr, _ := strings.Cut(r.Header.Get(spanHeader), ".")
	op, err1 := strconv.ParseInt(opStr, 10, 64)
	parent, err2 := strconv.ParseInt(parentStr, 10, 64)
	if err1 != nil || err2 != nil {
		return
	}
	log.add(span{Op: op, ID: log.newID(), Parent: parent, Name: "server.serve", Start: log.at(t0), End: log.at(t1)})
}

// opSpans returns the traced client-call wrapper of one op and the
// function that records the op's root span once it completes.
func (l *spanLog) opSpans(op int64) (traceCall, func(t0, t1 time.Time, cells int)) {
	root := l.newID()
	var calls []span
	call := func(ctx context.Context, name string, f func(context.Context) error) error {
		s := span{Op: op, ID: l.newID(), Parent: root, Name: name}
		ctx = context.WithValue(ctx, spanKey{}, strconv.FormatInt(op, 10)+"."+strconv.FormatInt(s.ID, 10))
		t0 := time.Now()
		err := f(ctx)
		s.Start, s.End = l.at(t0), l.at(time.Now())
		calls = append(calls, s)
		return err
	}
	finish := func(t0, t1 time.Time, cells int) {
		l.add(append(calls, span{Op: op, ID: root, Name: "op", Start: l.at(t0), End: l.at(t1), Cells: cells})...)
	}
	return call, finish
}

// writeSpans writes spans as JSON lines to <dir>/<workload>.spans.jsonl.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
