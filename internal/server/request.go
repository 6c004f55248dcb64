package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchgen"
	"repro/internal/ingest"
	"repro/leqa"
	"repro/leqa/client"
	"repro/leqa/trace"
)

// decodeJSON reads a JSON request body into v under the configured body
// cap. The returned error is already classified (statusError) for the
// handler to surface.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return classifyBodyErr(err)
	}
	return nil
}

// statusError carries the HTTP status a request-shaping failure maps to,
// plus an optional throttle reason tagging capacity rejections for
// leqad_throttled_total (gate/cell caps; 413s are classified by status).
type statusError struct {
	code   int
	msg    string
	reason string
}

func (e *statusError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &statusError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// capExceeded builds a gate/cell-cap rejection: a well-formed request whose
// workload is over a configured resource cap — 422 like other semantic
// rejections, but tagged so the throttle counters can distinguish capacity
// pushback from plain bad input.
func capExceeded(format string, args ...any) error {
	return &statusError{
		code:   http.StatusUnprocessableEntity,
		msg:    fmt.Sprintf(format, args...),
		reason: throttleGateCap,
	}
}

// classifyBodyErr maps body-read failures to statuses: over-cap bodies are
// 413, everything else is a 400.
func classifyBodyErr(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &statusError{code: http.StatusRequestEntityTooLarge, msg: mbe.Error()}
	}
	return badRequest("decoding request: %v", err)
}

// writeError surfaces a request failure with its mapped status, counting
// capacity rejections (413 body/spool caps, tagged gate/cell caps) into the
// throttle series on the way out.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var se *statusError
	if errors.As(err, &se) {
		switch {
		case se.code == http.StatusRequestEntityTooLarge:
			s.throttle(throttleBodyCap)
		case se.reason != "":
			s.throttle(se.reason)
		}
		writeJSONError(w, se.code, se.msg)
		return
	}
	writeJSONError(w, http.StatusUnprocessableEntity, err.Error())
}

// paramsFromSpec overlays one ParamSpec on the server's base parameter set.
// Full validation happens once the engine binds estimators; only the
// syntactic grid shape is checked here.
func (s *Server) paramsFromSpec(spec *client.ParamSpec) (leqa.Params, error) {
	p := s.cfg.Params.Clone()
	if spec == nil {
		return p, nil
	}
	if spec.Grid != "" {
		g, err := leqa.ParseGrid(spec.Grid)
		if err != nil {
			return p, badRequest("%v", err)
		}
		p.Grid = g
	}
	if spec.ChannelCapacity != nil {
		p.ChannelCapacity = *spec.ChannelCapacity
	}
	if spec.QubitSpeed != nil {
		p.QubitSpeed = *spec.QubitSpeed
	}
	if spec.TMove != nil {
		p.TMove = *spec.TMove
	}
	return p, nil
}

// paramSetsFromSpecs builds the grid's parameter columns; an empty list
// means one column of server defaults.
func (s *Server) paramSetsFromSpecs(specs []client.ParamSpec) ([]leqa.Params, error) {
	if len(specs) == 0 {
		return []leqa.Params{s.cfg.Params.Clone()}, nil
	}
	sets := make([]leqa.Params, len(specs))
	for j := range specs {
		p, err := s.paramsFromSpec(&specs[j])
		if err != nil {
			return nil, badRequest("paramSets[%d]: %v", j, err)
		}
		sets[j] = p
	}
	return sets, nil
}

// runnerFor returns the shared Runner, or a transient one bound to
// request-level estimator options. The zone-model memo is process-wide, so
// transient runners still share it.
func (s *Server) runnerFor(spec *client.OptionsSpec) (*leqa.Runner, error) {
	if spec == nil || (spec.Truncation == nil && spec.DisableCongestion == nil) {
		return s.runner, nil
	}
	opt := s.cfg.Options
	if spec.Truncation != nil {
		opt.Truncation = *spec.Truncation
	}
	if spec.DisableCongestion != nil {
		opt.DisableCongestion = *spec.DisableCongestion
	}
	r, err := leqa.NewRunner(s.cfg.Params, opt, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	// Analyses are estimator-option-independent, so transient runners share
	// the server's content-addressed store; the result memo's key includes
	// the runner's options, so sharing it across option overlays is safe too.
	r.SetAnalysisStore(s.store)
	if s.memo != nil {
		r.SetResultMemo(s.memo)
	}
	return r, nil
}

// wantDecompose reports whether non-FT uploads should be lowered (the
// default) or rejected.
func wantDecompose(spec *client.OptionsSpec) bool {
	return spec == nil || spec.Decompose == nil || *spec.Decompose
}

// resolveCircuit turns one CircuitSpec into an FT circuit, enforcing the
// gate-count cap. Errors are per-spec: batch handlers turn them into error
// rows rather than failing the request.
func (s *Server) resolveCircuit(ctx context.Context, spec client.CircuitSpec, decompose bool) (*leqa.Circuit, error) {
	// Spec resolution — generation or parsing plus FT lowering — is the
	// JSON endpoints' ingest phase, recorded as an ingest span on the
	// request's trace.
	defer func(t time.Time) {
		trace.FromContext(ctx).Observe(trace.SpanIngest, "", t, time.Since(t))
	}(time.Now())
	var c *leqa.Circuit
	var err error
	switch {
	case spec.Ref != "":
		// Refs resolve against the analysis store (resolveSource), never to
		// a materialized circuit — the store holds graphs, not gate lists.
		return nil, fmt.Errorf("by-reference circuit specs cannot be materialized")
	case spec.QC != "" && spec.Generate != "":
		return nil, fmt.Errorf("circuit spec has both qc and generate; pick one")
	case spec.Generate != "":
		// Admission control: screen the spec's predicted size before
		// synthesizing anything, so an absurd parameter (shor-2000000)
		// cannot balloon memory on its way to the post-generation cap.
		if bound, ok := benchgen.PredictFTOps(spec.Generate); ok && bound > s.cfg.MaxGates {
			return nil, capExceeded("generator %q may produce up to %d operations, over the server cap of %d",
				spec.Generate, bound, s.cfg.MaxGates)
		}
		c, err = leqa.GenerateFT(spec.Generate)
	case spec.QC != "":
		name := spec.Name
		if name == "" {
			name = "uploaded"
		}
		c, err = leqa.Parse(strings.NewReader(spec.QC), name)
	default:
		return nil, fmt.Errorf("circuit spec needs qc or generate")
	}
	if err != nil {
		return nil, err
	}
	if spec.Name != "" {
		c.Name = spec.Name
	}
	if !c.IsFT() {
		if !decompose {
			return nil, fmt.Errorf("circuit %q has non-FT gates and decompose is disabled", c.Name)
		}
		if c, err = leqa.Decompose(c); err != nil {
			return nil, err
		}
	}
	if c.NumGates() > s.cfg.MaxGates {
		return nil, capExceeded("circuit %q has %d operations, over the server cap of %d",
			c.Name, c.NumGates(), s.cfg.MaxGates)
	}
	return c, nil
}

// resolveSource turns one CircuitSpec into an engine source: by-ref specs
// resolve against the analysis store (the stored analysis feeds the
// estimator directly), inline and generated specs materialize through
// resolveCircuit. Errors are per-spec, like resolveCircuit's.
func (s *Server) resolveSource(ctx context.Context, spec client.CircuitSpec, decompose bool) (leqa.Source, error) {
	if spec.Ref == "" {
		c, err := s.resolveCircuit(ctx, spec, decompose)
		if err != nil {
			return leqa.Source{}, err
		}
		return leqa.CircuitSource(c), nil
	}
	if spec.QC != "" || spec.Generate != "" {
		return leqa.Source{}, badRequest("circuit spec has ref plus an inline form; pick one")
	}
	digest, err := leqa.ParseDigestRef(spec.Ref)
	if err != nil {
		return leqa.Source{}, badRequest("%v", err)
	}
	a, outcome, err := s.store.GetOutcome(digest)
	if errors.Is(err, leqa.ErrAnalysisNotFound) {
		return leqa.Source{}, &statusError{
			code: http.StatusNotFound,
			msg:  fmt.Sprintf("circuit %s is not in the analysis store; upload it with PUT /v1/circuits", spec.Ref),
		}
	}
	if err != nil {
		return leqa.Source{}, err
	}
	if a.Operations > s.cfg.MaxGates {
		return leqa.Source{}, capExceeded("circuit %q has %d operations, over the server cap of %d",
			a.Name, a.Operations, s.cfg.MaxGates)
	}
	name := spec.Name
	if name == "" {
		name = a.Name
	}
	src := leqa.AnalysisSource(name, a)
	src.StoreOutcome = outcome.String()
	src.Digest = digest // pre-known digest: the result memo can probe warm cells
	return src, nil
}

// specLabel names a circuit spec in error rows when resolution failed
// before any circuit existed.
func specLabel(spec client.CircuitSpec, i int) string {
	switch {
	case spec.Name != "":
		return spec.Name
	case spec.Generate != "":
		return spec.Generate
	case spec.Ref != "":
		return spec.Ref
	default:
		return fmt.Sprintf("circuit-%d", i)
	}
}

// isJSONRequest reports whether the estimate body is the JSON spec form
// (vs. a raw .qc upload).
func isJSONRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	return err == nil && (mt == "application/json" || strings.HasSuffix(mt, "+json"))
}

// paramSpecFromQuery assembles the parameter overlay of a raw .qc upload
// from its query string (the body is the netlist itself). A nil spec means
// no overrides.
func paramSpecFromQuery(q url.Values) (*client.ParamSpec, error) {
	var ps client.ParamSpec
	havePs := false
	if g := q.Get("grid"); g != "" {
		ps.Grid, havePs = g, true
	}
	if v := q.Get("nc"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, badRequest("query nc=%q: %v", v, err)
		}
		ps.ChannelCapacity, havePs = &n, true
	}
	if v := q.Get("v"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, badRequest("query v=%q: %v", v, err)
		}
		ps.QubitSpeed, havePs = &f, true
	}
	if v := q.Get("tmove"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, badRequest("query tmove=%q: %v", v, err)
		}
		ps.TMove, havePs = &f, true
	}
	if !havePs {
		return nil, nil
	}
	return &ps, nil
}

// decomposeFromQuery reads the raw-upload decompose knob (default true,
// matching the JSON OptionsSpec default).
func decomposeFromQuery(q url.Values) (bool, error) {
	v := q.Get("decompose")
	if v == "" {
		return true, nil
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		return false, badRequest("query decompose=%q: %v", v, err)
	}
	return b, nil
}

// classifyStreamErr maps streaming-ingestion failures to statuses: an
// exceeded spool cap is 413 (the raw-upload successor of the body cap); a
// gzip body whose inflated content outgrew the cap is 422 — the request
// itself was within bounds, its content was not; a stream past the gate
// cap is a 422 counted as gate_cap; everything else keeps writeError's
// default classification.
func classifyStreamErr(err error) error {
	var gl *ingest.GateLimitError
	if errors.As(err, &gl) {
		return capExceeded("circuit %q exceeds the server cap of %d operations", gl.Circuit, gl.Max)
	}
	if errors.Is(err, ingest.ErrInflateLimit) {
		return &statusError{code: http.StatusUnprocessableEntity, msg: err.Error()}
	}
	if errors.Is(err, ingest.ErrSpoolLimit) {
		return &statusError{code: http.StatusRequestEntityTooLarge, msg: err.Error()}
	}
	return err
}
