package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/ingest"
	"repro/leqa"
	"repro/leqa/client"
)

// handleCircuitPut ingests a netlist upload (.qc text or binary .qcb,
// either gzipped — sniffed by magic bytes, never by name) into the
// analysis store and replies with its content digest. The body is read
// once: the store analyzes it as it arrives and takes the digest from the
// analysis's records. The operation is idempotent: re-uploading a stored
// circuit is a store hit, whatever container it arrives in this time,
// because the digest covers the canonical gate stream rather than the
// bytes on the wire; the hit still pays the one analysis pass, and HEAD
// /v1/circuits/{digest} answers existence without a body. An upload the
// client abandons, or one still running when the server aborts, stops at
// the analysis's next context poll and stores nothing.
func (s *Server) handleCircuitPut(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "uploaded"
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	sc, err := ingest.NewAutoStream(r.Body, name, ingest.Options{
		SpoolDir:      s.cfg.SpoolDir,
		MaxSpoolBytes: s.cfg.MaxSpoolBytes,
		MaxGates:      s.cfg.MaxGates,
	})
	if err != nil {
		s.writeError(w, classifyStreamErr(err))
		return
	}
	defer sc.Close()
	a, digest, _, err := s.store.GetOrAnalyzeOutcome(ctx, sc)
	if err != nil {
		s.writeError(w, classifyStreamErr(err))
		return
	}
	if sc.BytesRead() == 0 {
		s.writeError(w, badRequest("empty netlist body"))
		return
	}
	if sp := sc.SpooledBytes(); sp > 0 {
		s.spooledUploads.Add(1)
		s.spooledBytes.Add(uint64(sp))
	}
	writeJSON(w, http.StatusOK, circuitInfo(digest, a))
}

// handleCircuitGet reports a stored circuit's analysis metadata by digest
// (HEAD answers existence only — net/http suppresses the body). Unknown
// digests are 404.
func (s *Server) handleCircuitGet(w http.ResponseWriter, r *http.Request) {
	ref := r.PathValue("digest")
	digest, err := leqa.ParseDigestRef(ref)
	if err != nil {
		s.writeError(w, badRequest("%v", err))
		return
	}
	a, err := s.store.Get(digest)
	if errors.Is(err, leqa.ErrAnalysisNotFound) {
		s.writeError(w, &statusError{
			code: http.StatusNotFound,
			msg:  fmt.Sprintf("circuit %s is not in the analysis store", ref),
		})
		return
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, circuitInfo(digest, a))
}

// circuitInfo assembles the circuits-endpoint reply from a stored analysis.
func circuitInfo(digest string, a *leqa.Analysis) client.CircuitInfo {
	return client.CircuitInfo{
		Digest:     leqa.FormatDigestRef(digest),
		Name:       a.Name,
		Qubits:     a.Qubits,
		Operations: a.Operations,
		FT:         a.FT,
	}
}
