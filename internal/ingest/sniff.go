package ingest

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
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
// by magic bytes: RFC 1952 gzip (inflated to an anonymous spool, then
// sniffed again), the .qcb binary netlist, or the textual .qc parser for
// everything else. owns lists resources the returned stream must release
// on Close; on error the caller keeps that responsibility.
func sniffSeekable(rs io.ReadSeeker, name string, opt Options, allowGzip bool, owns ...io.Closer) (Stream, error) {
	pos, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", name, err)
	}
	var magic [4]byte
	n, _ := io.ReadFull(rs, magic[:])
	if _, err := rs.Seek(pos, io.SeekStart); err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", name, err)
	}
	switch {
	case n >= 2 && magic[0] == qcbin.MagicGzip[0] && magic[1] == qcbin.MagicGzip[1]:
		if !allowGzip {
			return nil, fmt.Errorf("ingest: %s: nested gzip container", name)
		}
		spool, size, err := inflateToSpool(rs, name, opt)
		if err != nil {
			return nil, err
		}
		st, err := sniffSeekable(spool, name, opt, false, append(owns, spool)...)
		if err != nil {
			spool.Close()
			return nil, err
		}
		return setInflated(st, size), nil
	case n == 4 && [4]byte(magic[:]) == qcbin.MagicQCB:
		sc, err := qcbin.NewScanner(rs, name)
		if err != nil {
			return nil, err
		}
		return &binStream{Scanner: sc, owns: owns, maxGates: opt.MaxGates}, nil
	default:
		s := NewScanner(rs, name, opt)
		s.extra = owns
		return s, nil
	}
}

// setInflated records the inflate-spool footprint on a sniffed stream so
// SpooledBytes accounts for the disk the container actually used.
func setInflated(st Stream, size int64) Stream {
	switch v := st.(type) {
	case *Scanner:
		v.inflated = size
	case *binStream:
		v.spooled = size
	}
	return st
}

// inflateToSpool decompresses one gzip member stream into an anonymous
// temp file, enforcing opt.MaxSpoolBytes on the inflated size
// (ErrInflateLimit). The returned file is positioned at the start.
func inflateToSpool(r io.Reader, name string, opt Options) (*os.File, int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: %s: gzip: %w", name, err)
	}
	f, err := os.CreateTemp(opt.SpoolDir, "leqa-inflate-*.spool")
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: %s: creating inflate spool: %w", name, err)
	}
	os.Remove(f.Name())
	cw := &cappedFileWriter{f: f}
	if max := opt.MaxSpoolBytes; max > 0 {
		cw.max = max
		cw.overErr = fmt.Errorf("%w: gzipped netlist %q inflates past the %d-byte spool cap", ErrInflateLimit, name, max)
	}
	if _, err := io.Copy(cw, zr); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := zr.Close(); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("ingest: %s: gzip: %w", name, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("ingest: %s: %w", name, err)
	}
	return f, cw.n, nil
}

// spoolAll copies a non-seekable source to an anonymous temp file in full,
// enforcing opt.MaxSpoolBytes on the raw size (ErrSpoolLimit) — the .qcb
// decoder needs a seekable container.
func spoolAll(r io.Reader, name string, opt Options) (*os.File, int64, error) {
	f, err := os.CreateTemp(opt.SpoolDir, "leqa-ingest-*.spool")
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: %s: creating spool: %w", name, err)
	}
	os.Remove(f.Name())
	cw := &cappedFileWriter{f: f}
	if max := opt.MaxSpoolBytes; max > 0 {
		cw.max = max
		cw.overErr = fmt.Errorf("%w: netlist %q exceeds the %d-byte spool cap", ErrSpoolLimit, name, max)
	}
	if _, err := io.Copy(cw, r); err != nil {
		f.Close()
		return nil, 0, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("ingest: %s: %w", name, err)
	}
	return f, cw.n, nil
}

// cappedFileWriter counts bytes into a temp file, failing with overErr
// once max is exceeded.
type cappedFileWriter struct {
	f       *os.File
	n       int64
	max     int64
	overErr error
}

func (w *cappedFileWriter) Write(p []byte) (int, error) {
	if w.max > 0 && w.n+int64(len(p)) > w.max {
		return 0, w.overErr
	}
	n, err := w.f.Write(p)
	w.n += int64(n)
	return n, err
}

// NewAutoStream sniffs r by magic bytes and returns the right decoder for
// its container: gzip (transparently inflated), binary .qcb, or textual
// .qc — the upload-body counterpart of Open. Non-seekable binary sources
// are spooled to disk first (the decoder needs to seek); non-seekable text
// flows through the Scanner's own tee-spool machinery unchanged.
func NewAutoStream(r io.Reader, name string, opt Options) (Stream, error) {
	if rs, ok := r.(io.ReadSeeker); ok {
		if _, err := rs.Seek(0, io.SeekCurrent); err == nil {
			return sniffSeekable(rs, name, opt, true)
		}
	}
	var magic [4]byte
	n, err := io.ReadFull(r, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, fmt.Errorf("ingest: %s: %w", name, err)
	}
	src := io.MultiReader(bytes.NewReader(magic[:n]), r)
	switch {
	case n >= 2 && magic[0] == qcbin.MagicGzip[0] && magic[1] == qcbin.MagicGzip[1]:
		spool, size, err := inflateToSpool(src, name, opt)
		if err != nil {
			return nil, err
		}
		st, err := sniffSeekable(spool, name, opt, false, spool)
		if err != nil {
			spool.Close()
			return nil, err
		}
		return setInflated(st, size), nil
	case n == 4 && [4]byte(magic[:]) == qcbin.MagicQCB:
		spool, size, err := spoolAll(src, name, opt)
		if err != nil {
			return nil, err
		}
		sc, err := qcbin.NewScanner(spool, name)
		if err != nil {
			spool.Close()
			return nil, err
		}
		return &binStream{Scanner: sc, owns: []io.Closer{spool}, spooled: size, maxGates: opt.MaxGates}, nil
	default:
		return NewScanner(src, name, opt), nil
	}
}

// binStream adapts the .qcb decoder to the ingest Stream contract: spool
// accounting, the gate cap, and ownership of the containers opened on its
// behalf.
type binStream struct {
	*qcbin.Scanner
	owns     []io.Closer
	spooled  int64
	maxGates int   // Options.MaxGates
	err      error // the gate cap's error, sticky like a decode error
}

// Scan is the decoder's Scan under Options.MaxGates.
func (b *binStream) Scan() bool {
	if b.err != nil || !b.Scanner.Scan() {
		return false
	}
	if b.maxGates > 0 && b.GateIndex() >= b.maxGates {
		b.err = &GateLimitError{Circuit: b.Name(), Max: b.maxGates}
		return false
	}
	return true
}

// Err reports the gate cap's error, else the decoder's.
func (b *binStream) Err() error {
	if b.err != nil {
		return b.err
	}
	return b.Scanner.Err()
}

// Rewind restarts the decoder unless the gate cap stopped the stream.
func (b *binStream) Rewind() error {
	if b.err != nil {
		return b.err
	}
	return b.Scanner.Rewind()
}

// Materialize replays the capped stream into a circuit.
func (b *binStream) Materialize() (*circuit.Circuit, error) { return materialize(b) }

// SpooledBytes reports the disk spool footprint of the binary container
// (0 when it was decoded in place from a seekable source).
func (b *binStream) SpooledBytes() int64 { return b.spooled }

// Close releases the decoder and every container resource it owns.
func (b *binStream) Close() error {
	err := b.Scanner.Close()
	for _, c := range b.owns {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
