package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// spool makes a source that cannot seek an io.ReadSeeker, so an upload is
// read once, as it arrives, and can still be read again. A byte read from
// the source for the first time is also appended to one anonymous temp
// file; a seek back reads the file, then reads on from the source. The
// file is created on the first byte kept and capped at max bytes (0: no
// cap), past which the read fails with limit: ErrSpoolLimit over a request
// body, ErrInflateLimit over a gzip decoder. The source's error and the
// cap's are sticky. Not safe for concurrent use.
type spool struct {
	src   io.Reader
	name  string // the netlist, for the cap's error
	dir   string
	max   int64
	limit error

	f       *os.File
	n       int64 // bytes taken from src, all of them in f unless through
	pos     int64 // read offset
	eof     bool  // src is exhausted
	err     error // src's failure or the cap's
	through bool  // bytes past n are read through, not kept: a reader that takes the rest once leaves nothing to replay
}

func newSpool(src io.Reader, name string, opt Options, limit error) *spool {
	return &spool{src: src, name: name, dir: opt.SpoolDir, max: opt.MaxSpoolBytes, limit: limit}
}

// Read reads the kept bytes at the read offset, then the source, keeping
// what it reads.
func (sp *spool) Read(p []byte) (int, error) {
	if sp.pos < sp.n {
		k, err := sp.f.ReadAt(p[:min(int64(len(p)), sp.n-sp.pos)], sp.pos)
		sp.pos += int64(k)
		return k, err
	}
	if sp.err != nil {
		return 0, sp.err
	}
	if sp.eof {
		return 0, io.EOF
	}
	k, err := sp.src.Read(p)
	if k > 0 && !sp.through {
		if sp.err = sp.keep(p[:k]); sp.err != nil {
			return 0, sp.err
		}
	}
	sp.pos += int64(k)
	if err == io.EOF {
		sp.eof = true
	} else if err != nil {
		sp.err = err
	}
	return k, err
}

// keep appends b to the file, creating it on the first byte, under the cap.
func (sp *spool) keep(b []byte) error {
	if sp.max > 0 && sp.n+int64(len(b)) > sp.max {
		return fmt.Errorf("%w: netlist %q exceeds the %d-byte spool cap", sp.limit, sp.name, sp.max)
	}
	if sp.f == nil {
		f, err := os.CreateTemp(sp.dir, "leqa-ingest-*.spool")
		if err != nil {
			return fmt.Errorf("creating spool: %w", err)
		}
		// Unlink at once: the spool is anonymous scratch, reclaimed by the
		// OS even if the process dies without Close.
		os.Remove(f.Name())
		sp.f = f
	}
	k, err := sp.f.Write(b)
	sp.n += int64(k)
	return err
}

// Seek sets the read offset, relative to the start or to the current
// offset, at or before the bytes read so far.
func (sp *spool) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		off += sp.pos
	default:
		return sp.pos, errors.New("spool: seek relative to the end is not supported")
	}
	if off < 0 || off > max(sp.n, sp.pos) {
		return sp.pos, fmt.Errorf("spool: seek to %d outside the %d bytes read", off, max(sp.n, sp.pos))
	}
	sp.pos = off
	return off, nil
}

// drain keeps the rest of the source, so the file holds the whole netlist
// and n is its size. The read offset does not move.
func (sp *spool) drain() error {
	pos := sp.pos
	sp.pos = sp.n
	_, err := io.Copy(io.Discard, sp)
	sp.pos = pos
	return err
}

// Close releases the file.
func (sp *spool) Close() error {
	if sp.f == nil {
		return nil
	}
	return sp.f.Close()
}

// explain is err, unless the spool failed: then it is the spool's own
// error, which explains err. The .qcb decoder reports any short read as
// truncation and wraps nothing, so a cap or gzip fault under it reaches
// the caller this way. A nil spool explains nothing.
func (sp *spool) explain(name string, err error) error {
	if sp != nil && sp.err != nil {
		return fmt.Errorf("ingest: %s: %w", name, sp.err)
	}
	return err
}

// spooled sums the bytes the spools among owns keep on disk.
func spooled(owns []io.Closer) int64 {
	var n int64
	for _, c := range owns {
		if sp, ok := c.(*spool); ok {
			n += sp.n
		}
	}
	return n
}
