package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/circuit"
	"repro/leqa"
	"repro/leqa/client"
)

// Workload names, in the order the all-workloads mode runs them. Why each
// one exists is recorded in BENCHMARK.json and README.md.
var workloadNames = []string{"cold-upload", "design-sweep"}

const (
	// clients is the closed loop's width. A design-space script waits for
	// each reply, so a closed loop is the faithful model of one. With a
	// single client the server's shard and sweep gangs get every core, and
	// runs of the same code agree far better than with two clients sharing
	// the two cores of the reference host.
	clients = 1
	// tailGates seeded gates are spliced into every cold-upload body, so no
	// two bodies share a digest and no cache can help.
	tailGates    = 64
	sweepColumns = 8
)

var (
	// coldBases are the paper's mid-size circuits; hwb100ps (67,735 gates)
	// sits over the 65,536-gate shard and parallel-sweep thresholds, the
	// others under them.
	coldBases = []string{"hwb50ps", "gf2^50mult", "mod1048576adder", "gf2^64mult", "hwb100ps"}
	// sweepBases are the circuits design-sweep uploads once.
	sweepBases = []string{"gf2^64mult", "hwb100ps", "mod1048576adder", "gf2^100mult"}
	// speedScales multiply Table 1's qubit speed in generated columns.
	speedScales = []float64{0.25, 0.5, 1, 2}
	tailTypes   = []leqa.GateType{circuit.H, circuit.T, circuit.Tdg, circuit.X}
)

// rng is splitmix64: cheap enough to seed once per op, which makes op k of
// client c a pure function of (seed, workload, c, k).
type rng struct{ s uint64 }

func newRNG(seed int64, parts ...uint64) rng {
	r := rng{uint64(seed)}
	for _, p := range parts {
		r.s = r.next() ^ p
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// column is one fabric parameter column. The zero column means the server's
// defaults (Table 1).
type column struct {
	side  int     // square grid side, ULBs
	nc    int     // channel capacity
	speed float64 // multiple of Table 1's qubit speed
}

func randColumn(r *rng) column {
	return column{side: 40 + r.intn(161), nc: 1 + r.intn(10), speed: speedScales[r.intn(len(speedScales))]}
}

func (c column) params() leqa.Params {
	p := leqa.DefaultParams()
	if c.side == 0 {
		return p
	}
	p.Grid = leqa.Grid{Width: c.side, Height: c.side}
	p.ChannelCapacity = c.nc
	p.QubitSpeed *= c.speed
	return p
}

func (c column) spec() client.ParamSpec {
	p := c.params()
	return client.ParamSpec{
		Grid:            fmt.Sprintf("%dx%d", c.side, c.side),
		ChannelCapacity: &p.ChannelCapacity,
		QubitSpeed:      &p.QubitSpeed,
	}
}

// echoes reports whether a result row carries this column's parameters.
func (c column) echoes(rec leqa.ResultRecord) bool {
	p := c.params()
	return rec.GridWidth == p.Grid.Width && rec.GridHeight == p.Grid.Height &&
		rec.ChannelCap == p.ChannelCapacity && rec.QubitSpeed == p.QubitSpeed
}

// cellKey names one (circuit, column) result. src tells cold-upload's
// per-op circuits apart (opID of the op that uploaded it); it is -1 for
// circuits shared across ops.
type cellKey struct {
	circ int
	src  int64
	col  column
}

// op is one closed-loop iteration.
type op struct {
	client, seq int
	circs       []int         // the op's circuits, in request order
	tails       [][]leqa.Gate // cold-upload: per circuit, gates spliced in before END
	cols        []column
}

// opID packs (client, seq) into the identifier spans and cell keys carry.
func opID(client, seq int) int64 { return int64(client)<<32 | int64(seq) }

// bench holds one workload's inputs, all generated from the seed before any
// server starts.
type bench struct {
	name     string
	stream   uint64 // the workload's RNG stream, so workloads draw independently
	seed     int64
	names    []string        // circuit names, by circuit index
	circuits []*leqa.Circuit // by circuit index
	heads    [][]byte        // cold-upload: each base's .qc text without its END line
	uploads  [][]byte        // design-sweep: .qcb of each circuit
	refs     []string        // design-sweep: "sha256:..." reference of each circuit
	all      []int           // every circuit index: design-sweep's op
}

// newBench generates a workload's inputs from the seed.
func newBench(name string, seed int64) (*bench, error) {
	b := &bench{name: name, seed: seed}
	bases := coldBases
	switch name {
	case "cold-upload":
	case "design-sweep":
		bases = sweepBases
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	b.stream = uint64(slices.Index(workloadNames, name) + 1)
	for i, n := range bases {
		c, err := leqa.GenerateFT(n)
		if err != nil {
			return nil, err
		}
		b.circuits = append(b.circuits, c)
		b.names = append(b.names, c.Name)
		b.all = append(b.all, i)
		var buf bytes.Buffer
		if name == "cold-upload" {
			if err := circuit.WriteQC(&buf, c); err != nil {
				return nil, err
			}
			head, ok := bytes.CutSuffix(buf.Bytes(), []byte("END\n"))
			if !ok {
				return nil, fmt.Errorf("%s: .qc text does not end with END", c.Name)
			}
			b.heads = append(b.heads, head)
			continue
		}
		if err := leqa.WriteQCB(&buf, c); err != nil {
			return nil, err
		}
		d, err := leqa.CircuitDigest(c)
		if err != nil {
			return nil, err
		}
		b.uploads = append(b.uploads, buf.Bytes())
		b.refs = append(b.refs, leqa.FormatDigestRef(d))
	}
	return b, nil
}

// setupClient is the client of the ops that end each set-up.
const setupClient = clients

// opAt returns op seq of client c: a pure function of the seed, so the
// sequence is the same whatever the timing.
func (b *bench) opAt(c, seq int) op {
	r := newRNG(b.seed, b.stream, uint64(c), uint64(seq))
	o := op{client: c, seq: seq}
	switch b.name {
	case "cold-upload":
		// Every base once, in a seeded order, each with its own tail.
		o.circs = make([]int, len(b.names))
		for i := range o.circs {
			j := r.intn(i + 1)
			o.circs[i], o.circs[j] = o.circs[j], i
		}
		o.tails = make([][]leqa.Gate, len(o.circs))
		for k, c := range o.circs {
			n := b.circuits[c].NumQubits()
			o.tails[k] = make([]leqa.Gate, tailGates)
			for i := range o.tails[k] {
				if r.intn(3) == 0 {
					ctl := r.intn(n)
					tgt := r.intn(n - 1)
					if tgt >= ctl {
						tgt++
					}
					o.tails[k][i] = circuit.NewCNOT(ctl, tgt)
				} else {
					o.tails[k][i] = circuit.NewOneQubit(tailTypes[r.intn(len(tailTypes))], r.intn(n))
				}
			}
		}
	default: // design-sweep
		o.circs = b.all
		o.cols = make([]column, sweepColumns)
		for i := range o.cols {
			o.cols[i] = randColumn(&r)
		}
	}
	return o
}

// body renders upload i of a cold-upload op: the base text, the seeded
// tail and END, joined without copying the base.
func (b *bench) body(o op, i int) io.Reader {
	c := b.circuits[o.circs[i]]
	var tail strings.Builder
	for _, g := range o.tails[i] {
		switch g.Type {
		case circuit.CNOT:
			tail.WriteString("t2")
		case circuit.X:
			tail.WriteString("t1")
		case circuit.Tdg:
			tail.WriteString("T*")
		default:
			tail.WriteString(g.Type.String())
		}
		for _, q := range g.Qubits() {
			tail.WriteByte(' ')
			tail.WriteString(c.QubitName(q))
		}
		tail.WriteByte('\n')
	}
	return io.MultiReader(bytes.NewReader(b.heads[o.circs[i]]), strings.NewReader(tail.String()), strings.NewReader("END\n"))
}

// keyOf names the cell a row of op o reports, by its request position.
func (b *bench) keyOf(o op, circIdx, colIdx int) cellKey {
	k := cellKey{circ: o.circs[circIdx], src: -1}
	if b.name == "cold-upload" {
		k.src = opID(o.client, o.seq)
		return k
	}
	k.col = o.cols[colIdx]
	return k
}

// traceCall wraps one leqa/client call; the traced window records it as a
// span, the untraced one calls straight through.
type traceCall func(ctx context.Context, name string, f func(context.Context) error) error

func direct(ctx context.Context, _ string, f func(context.Context) error) error { return f(ctx) }

// do sends op o through cli, hands every row it returns to got and reports
// the cells returned. Any transport failure, non-2xx reply, error row,
// missing row or row that does not echo its request fails the op.
func (b *bench) do(ctx context.Context, cli *client.Client, o op, call traceCall, got func(cellKey, leqa.ResultRecord)) (cells int, err error) {
	if b.name == "cold-upload" {
		for i, c := range o.circs {
			var rec *leqa.ResultRecord
			err = call(ctx, "client.estimate_qc", func(ctx context.Context) (err error) {
				rec, err = cli.EstimateQC(ctx, b.names[c], b.body(o, i), nil)
				return err
			})
			if err != nil {
				return cells, err
			}
			if rec.Error != "" || !(column{}).echoes(*rec) {
				return cells, fmt.Errorf("bad reply %+v", *rec)
			}
			got(b.keyOf(o, i, 0), *rec)
			cells++
		}
		return cells, nil
	}
	want := len(o.circs) * len(o.cols)
	row := func(rec leqa.ResultRecord) error {
		if rec.Error != "" {
			return fmt.Errorf("error row: %s", rec.Error)
		}
		if rec.CircuitIndex < 0 || rec.CircuitIndex >= len(o.circs) || rec.ParamsIndex < 0 || rec.ParamsIndex >= len(o.cols) ||
			rec.CircuitIndex*len(o.cols)+rec.ParamsIndex != cells {
			return fmt.Errorf("row %d out of order: circuit %d params %d", cells, rec.CircuitIndex, rec.ParamsIndex)
		}
		if !o.cols[rec.ParamsIndex].echoes(rec) {
			return fmt.Errorf("row %d does not echo its parameters", cells)
		}
		got(b.keyOf(o, rec.CircuitIndex, rec.ParamsIndex), rec)
		cells++
		if cells > want {
			return fmt.Errorf("more than %d rows", want)
		}
		return nil
	}
	req := client.GridRequest{Circuits: make([]client.CircuitSpec, len(o.circs))}
	for i, c := range o.circs {
		req.Circuits[i].Ref = b.refs[c]
	}
	for _, c := range o.cols {
		req.ParamSets = append(req.ParamSets, c.spec())
	}
	err = call(ctx, "client.grid", func(ctx context.Context) error { return cli.Grid(ctx, req, row) })
	if err == nil && cells != want {
		err = fmt.Errorf("%d rows, want %d", cells, want)
	}
	return cells, err
}

// materialize rebuilds the circuit a cell was estimated on: the base, plus
// the op's tail for cold-upload.
func (b *bench) materialize(k cellKey) *leqa.Circuit {
	c := b.circuits[k.circ]
	if k.src < 0 {
		return c
	}
	o := b.opAt(int(k.src>>32), int(k.src&math.MaxUint32))
	c = c.Clone()
	c.Append(o.tails[slices.Index(o.circs, k.circ)]...)
	return c
}

// oracle recomputes a cell with the plain estimator on the materialized
// circuit: no store, no memo, no arena, no server.
func (b *bench) oracle(k cellKey) (float64, error) {
	res, err := leqa.EstimateWith(b.materialize(k), k.col.params(), leqa.EstimateOptions{})
	if err != nil {
		return 0, err
	}
	return res.EstimatedLatency, nil
}
