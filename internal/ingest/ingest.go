// Package ingest implements streaming netlist ingestion: a chunked .qc
// tokenizer/parser that emits validated gates one at a time, so a circuit
// can be analyzed (internal/analysis.AnalyzeStream) and estimated without
// ever materializing its gate list. Peak ingestion memory is one read chunk
// plus one line plus the qubit register — independent of gate count — which
// opens the beyond-memory workload class the ROADMAP names.
//
// The analysis reads a stream once: its counting pass records every gate
// for its fill pass. A Scanner is still re-windable, for the consumers that
// need a second pass — the materialized decompose fallback (Materialize),
// digest-then-analyze, encoders:
//
//   - sources that implement io.ReadSeeker (files) rewind with one Seek;
//   - everything else (pipes, network bodies) is spooled to an anonymous
//     temp file on the way through the first pass, and later passes replay
//     the spool. An optional byte cap bounds the spool (ErrSpoolLimit), so
//     a network service can move its request-size limit from RAM to disk.
//
// Statement parsing is circuit.LineParser — the exact code path ParseQC
// runs — so the streamed dialect, validation and *circuit.SyntaxError
// line/column diagnostics are identical to the materializing parser by
// construction.
package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"

	"repro/internal/circuit"
)

// Defaults for Options fields left zero.
const (
	// DefaultChunkBytes is the read-chunk size: large enough to amortize
	// syscalls, small enough to be irrelevant next to any real netlist.
	// Every Scanner allocates one, so a service pays it once per upload.
	DefaultChunkBytes = 64 << 10
	// DefaultMaxLineBytes caps a single .qc line, matching the 16 MiB token
	// cap ParseQC has always imposed via bufio.Scanner.
	DefaultMaxLineBytes = 16 << 20
)

// ErrSpoolLimit marks a non-seekable source that outgrew the configured
// on-disk spool cap. Services map it to 413 (the spool cap is the streaming
// successor of the in-RAM body cap).
var ErrSpoolLimit = errors.New("spool limit exceeded")

// Options tunes a Scanner; the zero value is ready for general use.
type Options struct {
	// ChunkBytes sizes the read buffer; 0 means DefaultChunkBytes.
	ChunkBytes int
	// MaxLineBytes caps one .qc line; 0 means DefaultMaxLineBytes.
	MaxLineBytes int
	// SpoolDir receives the temp spool for non-seekable sources; "" means
	// os.TempDir().
	SpoolDir string
	// MaxSpoolBytes caps the bytes spooled to disk for non-seekable
	// sources; 0 means no cap. Exceeding it fails the scan with an error
	// wrapping ErrSpoolLimit. Seekable sources never spool and are never
	// capped here.
	MaxSpoolBytes int64
}

func (o Options) chunk() int {
	if o.ChunkBytes <= 0 {
		return DefaultChunkBytes
	}
	return o.ChunkBytes
}

func (o Options) maxLine() int {
	if o.MaxLineBytes <= 0 {
		return DefaultMaxLineBytes
	}
	return o.MaxLineBytes
}

// Scanner streams validated gates out of a .qc source. Use like
// bufio.Scanner: Scan advances to the next gate, Gate returns it (borrowed
// — valid until the next Scan or Rewind; Clone to retain), Err reports the
// terminal failure after Scan returns false. Rewind restarts the gate
// stream for another pass. Not safe for concurrent use.
type Scanner struct {
	name string
	opt  Options
	p    *circuit.LineParser

	src    io.Reader
	seeker io.ReadSeeker // non-nil when src can rewind itself
	start  int64         // seek origin of the netlist within seeker

	spool     *os.File // lazily created for non-seekable sources
	spooled   int64    // bytes written to the spool so far
	spoolDone bool     // the source has been copied to the spool completely

	lr        lineReader
	started   bool  // startPass has run for the current pass
	replaying bool  // current pass reads the spool, not the source
	srcSize   int64 // max bytes consumed over source-reading passes

	gate      circuit.Gate
	gateIndex int
	err       error
	closed    bool
	ownsFile  *os.File    // set by Open; closed by Close
	extra     []io.Closer // container resources (files, inflate spools) released by Close
	inflated  int64       // bytes a gzip container inflated to disk on this stream's behalf
}

// NewScanner returns a Scanner over r. name labels the netlist in
// diagnostics and names the circuit. If r implements io.ReadSeeker the
// scanner rewinds in place; otherwise the first pass spools the source to
// disk under opt's spool settings.
func NewScanner(r io.Reader, name string, opt Options) *Scanner {
	s := &Scanner{
		name:      name,
		opt:       opt,
		p:         circuit.NewLineParser(name),
		src:       r,
		gateIndex: -1,
	}
	if rs, ok := r.(io.ReadSeeker); ok {
		if pos, err := rs.Seek(0, io.SeekCurrent); err == nil {
			s.seeker = rs
			s.start = pos
		}
		// A seeker that cannot even report its position (exotic wrappers)
		// falls back to the spool path.
	}
	return s
}

// Open returns a file-backed gate stream, naming the circuit after the
// file the way circuit.LoadQCFile does. The container is detected by magic
// bytes, not extension: textual .qc, binary .qcb and gzip-wrapped either
// way all decode transparently. Close releases the file (and any inflate
// spool).
func Open(path string, opt Options) (Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := sniffSeekable(f, netlistName(path), opt, true, f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return st, nil
}

// Name reports the netlist label.
func (s *Scanner) Name() string { return s.name }

// PrevalidatedGates implements analysis.PrevalidatedStream: every gate the
// line parser emits passes circuit.Gate.Validate by construction (shape
// from the mnemonic, operands from the register, which only grows, and a
// distinctness check), so the counting pass need not re-check.
func (s *Scanner) PrevalidatedGates() bool { return true }

// NumQubits reports the register size declared or auto-declared so far; it
// is final once a pass has consumed the whole stream.
func (s *Scanner) NumQubits() int { return s.p.NumQubits() }

// GateIndex reports the 0-based index of the current gate (-1 before the
// first Scan of a pass).
func (s *Scanner) GateIndex() int { return s.gateIndex }

// BytesRead reports the number of netlist bytes consumed from the original
// source (replay passes over the spool do not count twice). Once a pass has
// reached end of stream — or a rewind has drained a non-seekable source to
// the spool — it is the netlist's total size.
func (s *Scanner) BytesRead() int64 {
	if s.started && !s.replaying && s.lr.read > s.srcSize {
		return s.lr.read
	}
	return s.srcSize
}

// SpooledBytes reports how many bytes went to disk on this stream's
// behalf: the tee-spool for non-seekable sources plus any gzip inflate
// spool (0 for plain seekable sources).
func (s *Scanner) SpooledBytes() int64 { return s.spooled + s.inflated }

// Register exposes the scanner's qubit register as a gate-less circuit —
// read-only, shared with the live parser.
func (s *Scanner) Register() *circuit.Circuit { return s.p.Register() }

// Gate returns the current gate. Its operand slices are borrowed scratch,
// valid only until the next Scan or Rewind; Clone to retain.
func (s *Scanner) Gate() circuit.Gate { return s.gate }

// Err returns the terminal error, nil at clean end of stream.
func (s *Scanner) Err() error { return s.err }

// Scan advances to the next gate of the current pass, reporting false at
// end of stream or on error.
func (s *Scanner) Scan() bool {
	if s.err != nil || s.closed {
		return false
	}
	if !s.started {
		if err := s.startPass(); err != nil {
			s.err = err
			return false
		}
	}
	for {
		line, err := s.lr.next()
		if err == io.EOF {
			if !s.replaying {
				if s.seeker == nil {
					s.spoolDone = true
				}
				if s.lr.read > s.srcSize {
					s.srcSize = s.lr.read
				}
			}
			return false
		}
		if err != nil {
			s.err = s.wrapIO(err)
			return false
		}
		// The line buffer is recycled on the next read; LineParser clones
		// every string it retains (qubit names), so viewing the bytes as a
		// string without copying is safe and keeps the per-line cost
		// allocation-free.
		var text string
		if len(line) > 0 {
			text = unsafe.String(&line[0], len(line))
		}
		g, ok, perr := s.p.Next(text)
		if perr != nil {
			s.err = perr
			return false
		}
		if ok {
			s.gate = g
			s.gateIndex++
			return true
		}
	}
}

// Rewind restarts the gate stream so another pass can run. For seekable
// sources it is one Seek; for spooled sources the remainder of the source
// is drained to the spool first (enforcing the spool cap) and the next pass
// replays the spool from the start.
func (s *Scanner) Rewind() error {
	if s.closed {
		return fmt.Errorf("ingest: %s: scanner closed", s.name)
	}
	// Parse errors are terminal — the stream cannot be trusted past them —
	// but a rewind after a clean pass must clear nothing.
	if s.err != nil {
		return s.err
	}
	if s.seeker == nil && s.started && !s.spoolDone {
		// Finish copying the source so the replay sees the whole netlist.
		if err := s.drainToSpool(); err != nil {
			s.err = err
			return err
		}
	}
	s.started = false
	s.p.Rewind()
	s.gate = circuit.Gate{}
	s.gateIndex = -1
	return nil
}

// Close releases the spool (and the file when the scanner was built by
// Open). The scanner is unusable afterwards.
func (s *Scanner) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.spool != nil {
		err = s.spool.Close()
		s.spool = nil
	}
	if s.ownsFile != nil {
		if cerr := s.ownsFile.Close(); err == nil {
			err = cerr
		}
		s.ownsFile = nil
	}
	for _, c := range s.extra {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	s.extra = nil
	return err
}

// Materialize replays the stream into a fully materialized Circuit — the
// escape hatch for flows that need the gate list itself (FT decomposition
// of a non-FT upload, equivalence tests). The scanner remains usable: call
// Rewind to stream again.
func (s *Scanner) Materialize() (*circuit.Circuit, error) {
	if err := s.Rewind(); err != nil {
		return nil, err
	}
	var gates []circuit.Gate
	for s.Scan() {
		gates = append(gates, s.gate.Clone())
	}
	if err := s.Err(); err != nil {
		return nil, err
	}
	c := s.p.Register().Clone()
	c.Gates = gates
	return c, nil
}

// startPass points the line reader at the right byte stream for the pass
// that is about to run.
func (s *Scanner) startPass() error {
	defer func() { s.started = true }()
	if s.seeker != nil {
		if _, err := s.seeker.Seek(s.start, io.SeekStart); err != nil {
			return s.wrapIO(err)
		}
		s.replaying = false
		s.lr.reset(s.seeker, s.opt.chunk(), s.opt.maxLine())
		return nil
	}
	if s.spoolDone {
		// Replay pass: the whole netlist sits in the spool.
		if _, err := s.spool.Seek(0, io.SeekStart); err != nil {
			return s.wrapIO(err)
		}
		s.replaying = true
		s.lr.reset(s.spool, s.opt.chunk(), s.opt.maxLine())
		return nil
	}
	// First pass over a non-seekable source: tee every chunk into the
	// spool as it is parsed.
	if s.spool == nil {
		f, err := os.CreateTemp(s.opt.SpoolDir, "leqa-ingest-*.spool")
		if err != nil {
			return fmt.Errorf("ingest: %s: creating spool: %w", s.name, err)
		}
		// Unlink immediately: the spool is anonymous scratch, reclaimed by
		// the OS even if the process dies without Close.
		os.Remove(f.Name())
		s.spool = f
	}
	s.replaying = false
	s.lr.reset(io.TeeReader(s.src, (*spoolWriter)(s)), s.opt.chunk(), s.opt.maxLine())
	return nil
}

// drainToSpool copies the unread remainder of a non-seekable source into
// the spool so a replay pass sees the complete netlist.
func (s *Scanner) drainToSpool() error {
	if s.spool == nil {
		if err := s.startPass(); err != nil {
			return err
		}
	}
	// Unparsed bytes still sitting in the line reader went through the tee
	// already; only the source's remainder is missing.
	if _, err := io.Copy((*spoolWriter)(s), s.src); err != nil {
		return s.wrapIO(err)
	}
	s.spoolDone = true
	// Every source byte has passed through the spool writer, so the spool
	// size is the netlist size — record it for BytesRead even though the
	// parsing pass never reached EOF.
	s.srcSize = s.spooled
	return nil
}

func (s *Scanner) wrapIO(err error) error {
	return fmt.Errorf("ingest: %s: %w", s.name, err)
}

// spoolWriter adapts the scanner into the spool's capped io.Writer.
type spoolWriter Scanner

func (w *spoolWriter) Write(p []byte) (int, error) {
	s := (*Scanner)(w)
	if max := s.opt.MaxSpoolBytes; max > 0 && s.spooled+int64(len(p)) > max {
		return 0, fmt.Errorf("%w: netlist %q exceeds the %d-byte spool cap", ErrSpoolLimit, s.name, max)
	}
	n, err := s.spool.Write(p)
	s.spooled += int64(n)
	return n, err
}

// lineReader delivers one line at a time out of fixed-size chunked reads.
// Lines that fit inside the chunk buffer are returned as views into it
// (zero copy); longer lines accumulate into a growable carry buffer capped
// at maxLine. Returned slices are valid until the next call.
type lineReader struct {
	r       io.Reader
	buf     []byte // chunk buffer
	pos, n  int    // unread window within buf
	carry   []byte // partial line spanning chunk boundaries
	maxLine int
	read    int64 // total bytes pulled from r this pass
	eof     bool
}

func (lr *lineReader) reset(r io.Reader, chunk, maxLine int) {
	if cap(lr.buf) < chunk {
		lr.buf = make([]byte, chunk)
	}
	lr.buf = lr.buf[:chunk]
	lr.r = r
	lr.pos, lr.n = 0, 0
	lr.carry = lr.carry[:0]
	lr.maxLine = maxLine
	lr.read = 0
	lr.eof = false
}

// next returns the next line without its terminator ('\n'; a preceding
// '\r' is left in place — the field splitter treats it as whitespace).
// io.EOF signals a clean end of stream.
func (lr *lineReader) next() ([]byte, error) {
	lr.carry = lr.carry[:0]
	for {
		if lr.pos < lr.n {
			window := lr.buf[lr.pos:lr.n]
			if i := bytes.IndexByte(window, '\n'); i >= 0 {
				lr.pos += i + 1
				if len(lr.carry) == 0 {
					// The cap must hold on the zero-copy path too, or
					// accept/reject would depend on where chunk boundaries
					// happen to fall within the stream.
					if i > lr.maxLine {
						return nil, fmt.Errorf("line exceeds %d bytes", lr.maxLine)
					}
					return window[:i], nil
				}
				if err := lr.accumulate(window[:i]); err != nil {
					return nil, err
				}
				return lr.carry, nil
			}
			if err := lr.accumulate(window); err != nil {
				return nil, err
			}
			lr.pos = lr.n
		}
		if lr.eof {
			if len(lr.carry) > 0 {
				// Final line without a trailing newline.
				return lr.carry, nil
			}
			return nil, io.EOF
		}
		n, err := lr.r.Read(lr.buf)
		lr.pos, lr.n = 0, n
		lr.read += int64(n)
		if err == io.EOF {
			lr.eof = true
		} else if err != nil {
			return nil, err
		}
	}
}

func (lr *lineReader) accumulate(chunk []byte) error {
	if len(lr.carry)+len(chunk) > lr.maxLine {
		return fmt.Errorf("line exceeds %d bytes", lr.maxLine)
	}
	lr.carry = append(lr.carry, chunk...)
	return nil
}
