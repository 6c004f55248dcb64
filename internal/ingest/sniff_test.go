package ingest

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

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

func sniffCircuit(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := circuit.ParseQC(bytes.NewReader([]byte(sniffSample)), "sniff")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// containers renders the sample netlist in all four container formats.
func containers(t *testing.T) map[string][]byte {
	t.Helper()
	c := sniffCircuit(t)
	var qcb bytes.Buffer
	if err := qcbin.EncodeCircuit(&qcb, c); err != nil {
		t.Fatal(err)
	}
	gz := func(data []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(data)
		zw.Close()
		return buf.Bytes()
	}
	return map[string][]byte{
		"qc":     []byte(sniffSample),
		"qcb":    qcb.Bytes(),
		"qc.gz":  gz([]byte(sniffSample)),
		"qcb.gz": gz(qcb.Bytes()),
	}
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

// TestInflateLimit: a gzip body inflating past MaxSpoolBytes fails with
// ErrInflateLimit (422-class), while an oversized raw body keeps failing
// with ErrSpoolLimit (413-class).
func TestInflateLimit(t *testing.T) {
	data := containers(t)["qc.gz"]
	_, err := NewAutoStream(nonSeeker{bytes.NewReader(data)}, "sniff", Options{MaxSpoolBytes: 4})
	if !errors.Is(err, ErrInflateLimit) {
		t.Errorf("gzip over cap: %v, want ErrInflateLimit", err)
	}
	if errors.Is(err, ErrSpoolLimit) {
		t.Error("inflate-limit error must not double as a spool-limit error")
	}
	// Same cap, seekable source: still the inflate limit (the raw file may
	// be tiny — the inflated content is what grows).
	_, err = NewAutoStream(bytes.NewReader(data), "sniff", Options{MaxSpoolBytes: 4})
	if !errors.Is(err, ErrInflateLimit) {
		t.Errorf("seekable gzip over cap: %v, want ErrInflateLimit", err)
	}
	// Raw binary netlist over the cap through the spool path: ErrSpoolLimit.
	qcb := containers(t)["qcb"]
	_, err = NewAutoStream(nonSeeker{bytes.NewReader(qcb)}, "sniff", Options{MaxSpoolBytes: 4})
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

// TestTruncatedGzip: a corrupted gzip body errors cleanly.
func TestTruncatedGzip(t *testing.T) {
	data := containers(t)["qc.gz"]
	if _, err := NewAutoStream(bytes.NewReader(data[:len(data)-5]), "sniff", Options{}); err == nil {
		t.Fatal("truncated gzip accepted")
	}
}

// TestSpooledBytesAccounting: inflate spools count toward SpooledBytes.
func TestSpooledBytesAccounting(t *testing.T) {
	st, err := NewAutoStream(bytes.NewReader(containers(t)["qc.gz"]), "sniff", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.SpooledBytes() != int64(len(sniffSample)) {
		t.Errorf("SpooledBytes = %d, want %d (the inflated size)", st.SpooledBytes(), len(sniffSample))
	}
	// Plain seekable text spools nothing.
	st2, err := NewAutoStream(bytes.NewReader([]byte(sniffSample)), "sniff", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.SpooledBytes() != 0 {
		t.Errorf("seekable text SpooledBytes = %d, want 0", st2.SpooledBytes())
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
