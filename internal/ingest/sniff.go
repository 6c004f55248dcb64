package ingest

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/qcbin"
)

// ErrInflateLimit marks a gzip-wrapped netlist whose inflated size outgrew
// the spool cap. It is deliberately distinct from ErrSpoolLimit: the raw
// body was within bounds, the content was not, so services map it to 422
// (unprocessable content) rather than 413 (too large a request).
var ErrInflateLimit = errors.New("inflated size limit exceeded")

// Stream is the interface every ingest-produced gate stream satisfies: the
// analysis-layer GateStream contract plus the container-level facilities
// (register access, byte accounting, materialization, resource release)
// the CLI and service layers use. The textual Scanner and the binary .qcb
// decoder both implement it; callers obtained through Open or
// NewAutoStream cannot tell the containers apart.
type Stream interface {
	analysis.GateStream
	Register() *circuit.Circuit
	GateIndex() int
	BytesRead() int64
	SpooledBytes() int64
	Materialize() (*circuit.Circuit, error)
	Close() error
}

// netlistName derives a circuit name from a netlist path: basename with
// the known container suffixes trimmed (mycirc.qcb.gz → mycirc), matching
// circuit.QCBaseName on plain .qc paths.
func netlistName(path string) string {
	name := filepath.Base(path)
	name = strings.TrimSuffix(name, ".gz")
	name = strings.TrimSuffix(name, ".qcb")
	return strings.TrimSuffix(name, ".qc")
}

// sniffSeekable routes a positioned seekable source to the right decoder
// by magic bytes: RFC 1952 gzip (a spool over the inflater, sniffed
// again), the .qcb binary netlist, or the textual .qc parser for
// everything else. This is the one container switch: NewAutoStream puts a
// source that cannot seek behind a spool and comes here too. owns lists
// resources the returned stream must release on Close; on error the caller
// keeps that responsibility.
func sniffSeekable(rs io.ReadSeeker, name string, opt Options, allowGzip bool, owns ...io.Closer) (Stream, error) {
	pos, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", name, err)
	}
	sp, _ := rs.(*spool)
	var magic [4]byte
	n, err := io.ReadFull(rs, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, sp.explain(name, fmt.Errorf("ingest: %s: %w", name, err))
	}
	if _, err := rs.Seek(pos, io.SeekStart); err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", name, err)
	}
	switch {
	case n >= 2 && magic[0] == qcbin.MagicGzip[0] && magic[1] == qcbin.MagicGzip[1]:
		if !allowGzip {
			return nil, fmt.Errorf("ingest: %s: nested gzip container", name)
		}
		// The inflater reads the body once, from here on: the spool over it
		// keeps the inflated netlist, so a spool under it keeps no more.
		if sp != nil {
			sp.through = true
		}
		zr, err := gzip.NewReader(rs)
		if err != nil {
			return nil, sp.explain(name, fmt.Errorf("ingest: %s: gzip: %w", name, err))
		}
		inflated := newSpool(zr, name, opt, ErrInflateLimit)
		st, err := sniffSeekable(inflated, name, opt, false, append(owns, inflated)...)
		if err != nil {
			inflated.Close()
			return nil, err
		}
		return st, nil
	case n == 4 && [4]byte(magic[:]) == qcbin.MagicQCB:
		sc, err := qcbin.NewScanner(rs, name)
		if err != nil {
			return nil, sp.explain(name, err)
		}
		return &binStream{Scanner: sc, sp: sp, owns: owns, maxGates: opt.MaxGates}, nil
	default:
		s := NewScanner(rs, name, opt)
		s.owns = owns // rs seeks, so s spooled nothing of its own
		return s, nil
	}
}

// NewAutoStream sniffs r by magic bytes and returns the right decoder for
// its container: gzip (inflated as the decoder reads), binary .qcb, or
// textual .qc — the upload-body counterpart of Open. A source that cannot
// seek is read once, as it arrives, through a spool that keeps what it
// reads for a later pass: the raw netlist, or for gzip the inflated one.
// Nothing is copied to disk ahead of the decoder, so a spool cap or a
// truncated gzip body fails the first pass that meets it.
func NewAutoStream(r io.Reader, name string, opt Options) (Stream, error) {
	if rs, ok := r.(io.ReadSeeker); ok {
		if _, err := rs.Seek(0, io.SeekCurrent); err == nil {
			return sniffSeekable(rs, name, opt, true)
		}
	}
	sp := newSpool(r, name, opt, ErrSpoolLimit)
	st, err := sniffSeekable(sp, name, opt, true, sp)
	if err != nil {
		sp.Close()
		return nil, err
	}
	return st, nil
}

// binStream adapts the .qcb decoder to the ingest Stream contract: the
// spool it reads, the gate cap, and ownership of the containers opened on
// its behalf.
type binStream struct {
	*qcbin.Scanner
	sp       *spool // the decoder's source when it is a spool
	owns     []io.Closer
	maxGates int   // Options.MaxGates
	started  bool  // Scan has run since the last Rewind
	err      error // the gate cap's or the spool's error, sticky like a decode error
}

// Scan is the decoder's Scan under Options.MaxGates.
func (b *binStream) Scan() bool {
	b.started = true
	if b.err != nil || !b.Scanner.Scan() {
		return false
	}
	if b.maxGates > 0 && b.GateIndex() >= b.maxGates {
		b.err = &GateLimitError{Circuit: b.Name(), Max: b.maxGates}
		return false
	}
	return true
}

// Err reports the gate cap's error, else the spool's, else the decoder's:
// a spool that failed under the decoder explains its truncation.
func (b *binStream) Err() error {
	if b.err != nil {
		return b.err
	}
	return b.sp.explain(b.Name(), b.Scanner.Err())
}

// Rewind restarts the decoder unless the stream failed. Over a spool, once
// a pass has started, the rest of the source is drained into the spool
// first, so BytesRead is the netlist's size.
func (b *binStream) Rewind() error {
	if err := b.Err(); err != nil {
		return err
	}
	if b.sp != nil && b.started {
		if err := b.sp.drain(); err != nil {
			b.err = fmt.Errorf("ingest: %s: %w", b.Name(), err)
			return b.err
		}
	}
	b.started = false
	return b.Scanner.Rewind()
}

// BytesRead reports the netlist bytes read from a spooled source, the
// whole netlist once a pass has reached its end or a Rewind has drained
// it, else the bytes the decoder consumed on this pass.
func (b *binStream) BytesRead() int64 {
	if b.sp != nil {
		return b.sp.n
	}
	return b.Scanner.BytesRead()
}

// Materialize replays the capped stream into a circuit.
func (b *binStream) Materialize() (*circuit.Circuit, error) { return materialize(b) }

// SpooledBytes reports the bytes the stream's spools keep on disk (0 when
// it was decoded in place from a seekable source).
func (b *binStream) SpooledBytes() int64 { return spooled(b.owns) }

// Close releases the decoder and every container resource it owns.
func (b *binStream) Close() error {
	err := b.Scanner.Close()
	if cerr := closeAll(b.owns); err == nil {
		err = cerr
	}
	return err
}
