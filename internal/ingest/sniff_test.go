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
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/qcbin"
)

// sniffSample is a small netlist exercised through every container.
const sniffSample = `.v a b c
.i a b
BEGIN
H a
TOF a b c
CNOT b c
END
`

func sniffCircuit(t testing.TB) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseQC(bytes.NewReader([]byte(sniffSample)), "sniff")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// containers renders the sample netlist in all four container formats.
func containers(t testing.TB) map[string][]byte {
	t.Helper()
	c := sniffCircuit(t)
	var qcb bytes.Buffer
	if err := qcbin.EncodeCircuit(&qcb, c); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"qc":     []byte(sniffSample),
		"qcb":    qcb.Bytes(),
		"qc.gz":  gzipped([]byte(sniffSample)),
		"qcb.gz": gzipped(qcb.Bytes()),
	}
}

// gzipped wraps data in one gzip member.
func gzipped(data []byte) []byte {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(data)
	zw.Close()
	return buf.Bytes()
}

// nonSeeker hides the seeker from a bytes.Reader to force the spool paths.
type nonSeeker struct{ r io.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

// TestSniffAllContainers decodes the same netlist from every container,
// seekable and not, through file-backed Open and through NewAutoStream —
// the gate streams must be identical.
func TestSniffAllContainers(t *testing.T) {
	want := sniffCircuit(t)
	for container, data := range containers(t) {
		for _, seekable := range []bool{true, false} {
			name := container
			if !seekable {
				name += "/pipe"
			}
			t.Run(name, func(t *testing.T) {
				var r io.Reader = bytes.NewReader(data)
				if !seekable {
					r = nonSeeker{bytes.NewReader(data)}
				}
				st, err := NewAutoStream(r, "sniff", Options{})
				if err != nil {
					t.Fatalf("NewAutoStream: %v", err)
				}
				defer st.Close()
				got, err := st.Materialize()
				if err != nil {
					t.Fatalf("Materialize: %v", err)
				}
				if got.NumQubits() != want.NumQubits() || len(got.Gates) != len(want.Gates) {
					t.Fatalf("decoded %d qubits / %d gates, want %d / %d",
						got.NumQubits(), len(got.Gates), want.NumQubits(), len(want.Gates))
				}
				for i := range want.Gates {
					w, g := want.Gates[i], got.Gates[i]
					if w.Type != g.Type {
						t.Fatalf("gate %d type %v, want %v", i, g.Type, w.Type)
					}
				}
			})
		}
	}
}

// TestOpenSniffsByMagic writes each container under a deliberately wrong
// extension; Open must decode by content, not name.
func TestOpenSniffsByMagic(t *testing.T) {
	want := sniffCircuit(t)
	dir := t.TempDir()
	for container, data := range containers(t) {
		// The extension lies on purpose.
		path := filepath.Join(dir, "lying-"+container+".qc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, Options{})
		if err != nil {
			t.Fatalf("Open(%s): %v", container, err)
		}
		got, err := st.Materialize()
		st.Close()
		if err != nil {
			t.Fatalf("%s: %v", container, err)
		}
		if len(got.Gates) != len(want.Gates) {
			t.Errorf("%s: %d gates, want %d", container, len(got.Gates), len(want.Gates))
		}
	}
}

// TestNetlistName checks container suffix trimming.
func TestNetlistName(t *testing.T) {
	for path, want := range map[string]string{
		"/a/b/mycirc.qc":     "mycirc",
		"/a/b/mycirc.qcb":    "mycirc",
		"/a/b/mycirc.qc.gz":  "mycirc",
		"/a/b/mycirc.qcb.gz": "mycirc",
		"plain":              "plain",
	} {
		if got := netlistName(path); got != want {
			t.Errorf("netlistName(%s) = %q, want %q", path, got, want)
		}
	}
}

// firstPass opens r with NewAutoStream and runs one pass over it,
// reporting the first error: a spool cap or a gzip fault shows while the
// decoder reads, so it may arrive at construction or during the pass.
func firstPass(r io.Reader, opt Options) (Stream, error) {
	st, err := NewAutoStream(r, "sniff", opt)
	if err != nil {
		return nil, err
	}
	for st.Scan() {
	}
	return st, st.Err()
}

// TestInflateLimit: a gzip body inflating past MaxSpoolBytes fails with
// ErrInflateLimit (422-class), while an oversized raw body keeps failing
// with ErrSpoolLimit (413-class). Both fail during the first pass: nothing
// is inflated or spooled ahead of the decoder.
func TestInflateLimit(t *testing.T) {
	data := containers(t)["qc.gz"]
	_, err := firstPass(nonSeeker{bytes.NewReader(data)}, Options{MaxSpoolBytes: 4})
	if !errors.Is(err, ErrInflateLimit) {
		t.Errorf("gzip over cap: %v, want ErrInflateLimit", err)
	}
	if errors.Is(err, ErrSpoolLimit) {
		t.Error("inflate-limit error must not double as a spool-limit error")
	}
	// Same cap, seekable source: still the inflate limit (the raw file may
	// be tiny — the inflated content is what grows).
	_, err = firstPass(bytes.NewReader(data), Options{MaxSpoolBytes: 4})
	if !errors.Is(err, ErrInflateLimit) {
		t.Errorf("seekable gzip over cap: %v, want ErrInflateLimit", err)
	}
	// The same under the .qcb decoder, which reports a short read as
	// truncation: the spool's error must still come through.
	_, err = firstPass(nonSeeker{bytes.NewReader(containers(t)["qcb.gz"])}, Options{MaxSpoolBytes: 8})
	if !errors.Is(err, ErrInflateLimit) {
		t.Errorf("gzipped binary over cap: %v, want ErrInflateLimit", err)
	}
	// Raw binary netlist over the cap through the spool path: ErrSpoolLimit.
	qcb := containers(t)["qcb"]
	_, err = firstPass(nonSeeker{bytes.NewReader(qcb)}, Options{MaxSpoolBytes: 4})
	if !errors.Is(err, ErrSpoolLimit) {
		t.Errorf("binary over cap: %v, want ErrSpoolLimit", err)
	}
}

// TestNestedGzipRejected: one container level of gzip only.
func TestNestedGzipRejected(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(containers(t)["qc.gz"])
	zw.Close()
	if _, err := NewAutoStream(bytes.NewReader(buf.Bytes()), "sniff", Options{}); err == nil {
		t.Fatal("nested gzip accepted")
	}
}

// TestTruncatedGzip: a truncated gzip body fails its first pass cleanly,
// in either container, seekable or not.
func TestTruncatedGzip(t *testing.T) {
	for _, container := range []string{"qc.gz", "qcb.gz"} {
		data := containers(t)[container]
		data = data[:len(data)-5]
		for _, r := range []io.Reader{bytes.NewReader(data), nonSeeker{bytes.NewReader(data)}} {
			if _, err := firstPass(r, Options{}); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%s: truncated gzip: %v, want unexpected EOF", container, err)
			}
		}
	}
}

// TestSpooledBytesAccounting: a spool counts toward SpooledBytes what it
// kept: the inflated netlist of a gzip body, the netlist of a body that
// cannot seek, nothing for seekable plain text.
func TestSpooledBytesAccounting(t *testing.T) {
	for _, tc := range []struct {
		label string
		r     io.Reader
		want  int64
	}{
		{"seekable qc.gz", bytes.NewReader(containers(t)["qc.gz"]), int64(len(sniffSample))},
		{"piped qc", nonSeeker{strings.NewReader(sniffSample)}, int64(len(sniffSample))},
		{"seekable qc", strings.NewReader(sniffSample), 0},
	} {
		st, err := firstPass(tc.r, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if st.SpooledBytes() != tc.want {
			t.Errorf("%s: SpooledBytes = %d, want %d", tc.label, st.SpooledBytes(), tc.want)
		}
		st.Close()
	}
}

// TestPipedGzipSpoolsOnlyInflated: a gzip body that cannot seek keeps on
// disk its inflated netlist and nothing else — the magic bytes the sniff
// reads stay in memory — so SpooledBytes is the netlist's size, for the
// sample and for a netlist of thousands of gates, as .qc.gz and .qcb.gz.
func TestPipedGzipSpoolsOnlyInflated(t *testing.T) {
	big, err := benchgen.GenerateFT("gf2^16mult")
	if err != nil {
		t.Fatal(err)
	}
	var bigQC, bigQCB bytes.Buffer
	if err := circuit.WriteQC(&bigQC, big); err != nil {
		t.Fatal(err)
	}
	if err := qcbin.EncodeCircuit(&bigQCB, big); err != nil {
		t.Fatal(err)
	}
	small := containers(t)
	for _, tc := range []struct {
		label   string
		netlist []byte
	}{
		{"sample qc.gz", small["qc"]},
		{"sample qcb.gz", small["qcb"]},
		{"gf2^16mult qc.gz", bigQC.Bytes()},
		{"gf2^16mult qcb.gz", bigQCB.Bytes()},
	} {
		st, err := firstPass(nonSeeker{bytes.NewReader(gzipped(tc.netlist))}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if got, want := st.SpooledBytes(), int64(len(tc.netlist)); got != want {
			t.Errorf("%s: SpooledBytes = %d, want the inflated netlist's %d", tc.label, got, want)
		}
		st.Close()
	}
}

// TestBinaryStreamRewinds: the binary stream supports the analyzer's
// two-pass contract through the Stream interface.
func TestBinaryStreamRewinds(t *testing.T) {
	st, err := NewAutoStream(bytes.NewReader(containers(t)["qcb"]), "sniff", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	count := func() int {
		n := 0
		for st.Scan() {
			n++
		}
		return n
	}
	n1 := count()
	if err := st.Rewind(); err != nil {
		t.Fatal(err)
	}
	if n2 := count(); n1 != n2 || st.Err() != nil {
		t.Fatalf("passes disagree: %d vs %d (err %v)", n1, n2, st.Err())
	}
}

// TestMaxGatesEveryContainer holds Options.MaxGates on every container and
// every pass: a netlist of exactly MaxGates gates streams and materializes
// in full, while one gate more stops the first pass at gate MaxGates+1 with
// a *GateLimitError that sticks through Rewind and Materialize.
func TestMaxGatesEveryContainer(t *testing.T) {
	n := len(sniffCircuit(t).Gates)
	for container, data := range containers(t) {
		for _, seekable := range []bool{true, false} {
			open := func(max int) Stream {
				var r io.Reader = bytes.NewReader(data)
				if !seekable {
					r = nonSeeker{bytes.NewReader(data)}
				}
				st, err := NewAutoStream(r, "sniff", Options{MaxGates: max})
				if err != nil {
					t.Fatalf("%s: NewAutoStream: %v", container, err)
				}
				t.Cleanup(func() { st.Close() })
				return st
			}
			label := fmt.Sprintf("%s/seekable=%v", container, seekable)

			at := open(n)
			for pass := 0; pass < 2; pass++ {
				if err := at.Rewind(); err != nil {
					t.Fatalf("%s: Rewind: %v", label, err)
				}
				if got := len(collect(t, at)); got != n {
					t.Fatalf("%s pass %d: %d gates at a cap of %d, want all %d", label, pass, got, n, n)
				}
			}
			if c, err := at.Materialize(); err != nil || len(c.Gates) != n {
				t.Fatalf("%s: Materialize at the cap = %v", label, err)
			}

			over := open(n - 1)
			scanned := 0
			for over.Scan() {
				scanned++
			}
			var gl *GateLimitError
			if err := over.Err(); !errors.As(err, &gl) || !errors.Is(err, ErrGateLimit) || gl.Max != n-1 || gl.Circuit != "sniff" {
				t.Fatalf("%s: err = %v, want a GateLimitError for sniff at %d", label, err, n-1)
			}
			if scanned != n-1 {
				t.Fatalf("%s: %d gates before the cap, want %d", label, scanned, n-1)
			}
			if err := over.Rewind(); !errors.Is(err, ErrGateLimit) {
				t.Fatalf("%s: Rewind after the cap = %v", label, err)
			}
			if _, err := over.Materialize(); !errors.Is(err, ErrGateLimit) {
				t.Fatalf("%s: Materialize after the cap = %v", label, err)
			}
		}
	}
}

// TestPipedBinaryDecodesAsItArrives: a .qcb body that cannot seek is
// decoded as it arrives, not copied to disk first. A writer sends the
// header and three times the decoder's 64 KiB window of records into a
// pipe and holds it open: the stream yields its first gate before the
// writer closes, plain and gzipped, and then decodes every gate.
func TestPipedBinaryDecodesAsItArrives(t *testing.T) {
	c := circuit.New("piped", 2)
	for len(c.Gates) < 64<<10 { // 3-byte CNOT records: 192 KiB
		c.Append(circuit.NewCNOT(0, 1))
	}
	var qcb bytes.Buffer
	if err := qcbin.EncodeCircuit(&qcb, c); err != nil {
		t.Fatal(err)
	}
	for _, gz := range []bool{false, true} {
		pr, pw := io.Pipe()
		hold := make(chan struct{})
		go func() {
			var w io.Writer = pw
			zw := gzip.NewWriter(pw)
			if gz {
				w = zw
			}
			w.Write(qcb.Bytes())
			if gz {
				zw.Flush()
			}
			<-hold
			if gz {
				zw.Close()
			}
			pw.Close()
		}()
		first := make(chan error, 1)
		rest := make(chan error, 1)
		go func() {
			st, err := NewAutoStream(pr, "piped", Options{})
			if err != nil {
				first <- err
				return
			}
			defer st.Close()
			if !st.Scan() {
				first <- fmt.Errorf("no first gate: %v", st.Err())
				return
			}
			first <- nil
			n := 1
			for st.Scan() {
				n++
			}
			if err := st.Err(); err != nil || n != len(c.Gates) {
				rest <- fmt.Errorf("%d gates, err %v; want %d", n, err, len(c.Gates))
				return
			}
			rest <- nil
		}()
		select {
		case err := <-first:
			if err != nil {
				t.Fatalf("gzip=%v: %v", gz, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("gzip=%v: no gate before the writer closed the pipe", gz)
		}
		close(hold)
		if err := <-rest; err != nil {
			t.Fatalf("gzip=%v: %v", gz, err)
		}
	}
}

// FuzzAutoStream runs every container through the spool: arbitrary bytes
// and their gzip wrapping, through NewAutoStream over a seekable reader
// and over one that cannot seek, which is read once through a spool and
// replayed from it. Over two passes with a Rewind between, the two streams
// must agree on accept or reject, error text, every gate and NumQubits,
// and the second pass must replay the first. The spool cap bounds what a
// gzip bomb can inflate to disk.
func FuzzAutoStream(f *testing.F) {
	for _, data := range containers(f) {
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	f.Add([]byte(sampleQC))
	f.Add([]byte(".v a\nBEGIN\nbogus a\nEND\n"))
	f.Add([]byte{0x9D, 'Q', 'C', 'B', 1, 0, 1, 0, byte(circuit.X), 0})
	f.Add([]byte{0x1f, 0x8b})
	opt := Options{ChunkBytes: 31, MaxSpoolBytes: 4 << 20}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, body := range [][]byte{data, gzipped(data)} {
			seek, serr := NewAutoStream(bytes.NewReader(body), "fuzz", opt)
			pipe, perr := NewAutoStream(nonSeeker{bytes.NewReader(body)}, "fuzz", opt)
			if !sameErr(serr, perr) {
				t.Fatalf("construction: seekable err %v, spooled err %v", serr, perr)
			}
			if serr != nil {
				continue
			}
			var first []circuit.Gate
			for pass := 0; pass < 2; pass++ {
				if pass > 0 {
					serr, perr = seek.Rewind(), pipe.Rewind()
					if !sameErr(serr, perr) {
						t.Fatalf("rewind: seekable err %v, spooled err %v", serr, perr)
					}
					if serr != nil {
						break
					}
				}
				for i := 0; ; i++ {
					sok, pok := seek.Scan(), pipe.Scan()
					if sok != pok {
						t.Fatalf("pass %d gate %d: seekable scanned %v, spooled %v (errs %v, %v)", pass, i, sok, pok, seek.Err(), pipe.Err())
					}
					if !sok {
						break
					}
					g := seek.Gate()
					if !gatesEqual(g, pipe.Gate()) {
						t.Fatalf("pass %d gate %d: seekable %+v, spooled %+v", pass, i, g, pipe.Gate())
					}
					if pass == 0 && len(first) < 1<<12 {
						first = append(first, g.Clone())
					} else if pass == 1 && i < len(first) && !gatesEqual(g, first[i]) {
						t.Fatalf("replay gate %d = %+v, first pass %+v", i, g, first[i])
					}
				}
				serr, perr = seek.Err(), pipe.Err()
				if !sameErr(serr, perr) {
					t.Fatalf("pass %d: seekable err %v, spooled err %v", pass, serr, perr)
				}
				if seek.NumQubits() != pipe.NumQubits() {
					t.Fatalf("pass %d: seekable %d qubits, spooled %d", pass, seek.NumQubits(), pipe.NumQubits())
				}
				if serr != nil {
					break
				}
			}
			seek.Close()
			pipe.Close()
		}
	})
}

// sameErr reports whether two errors are both nil or have one text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

func gatesEqual(a, b circuit.Gate) bool {
	return a.Type == b.Type && intsEqual(a.Controls, b.Controls) && intsEqual(a.Targets, b.Targets)
}
