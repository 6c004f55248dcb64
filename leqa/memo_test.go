package leqa

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestGridColumnsDedupe: duplicate parameter columns collapse onto the
// lowest-index representative, and unique columns are their own reps.
func TestGridColumnsDedupe(t *testing.T) {
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.ChannelCapacity = 2
	cols := newGridColumns([]Params{p1, p2, p1.Clone(), p2.Clone(), p1})
	if got, want := cols.rep, []int{0, 1, 0, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rep = %v, want %v", got, want)
	}
	if got, want := cols.uniq, []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("uniq = %v, want %v", got, want)
	}
}

// TestSweepGridDedupesDuplicateColumns: a grid whose parameter list repeats
// a configuration estimates it once — duplicate cells share the
// representative's Result pointer — and every cell still matches the
// all-unique grid bitwise.
func TestSweepGridDedupesDuplicateColumns(t *testing.T) {
	c, err := GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	p1 := DefaultParams()
	p2 := DefaultParams()
	p2.TMove = 150
	cells, err := sweepGrid(context.Background(), []*Circuit{c}, []Params{p1, p2, p1.Clone(), p2.Clone()})
	if err != nil {
		t.Fatal(err)
	}
	for k, cell := range cells {
		if cell.Err != nil {
			t.Fatalf("cell %d: %v", k, cell.Err)
		}
	}
	if cells[0].Result != cells[2].Result || cells[1].Result != cells[3].Result {
		t.Fatal("duplicate columns must share their representative's Result")
	}
	want, err := Estimate(c, p2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cells[3].Result, want) {
		t.Fatal("deduped cell differs from the sequential estimate")
	}
}

// TestResultMemoWarmGridBitwiseEqual is the memo correctness anchor: a warm
// re-run of the same grid serves every cell from the memo (hits recorded,
// results bitwise-identical to the cold run).
func TestResultMemoWarmGridBitwiseEqual(t *testing.T) {
	r, err := NewRunner(DefaultParams(), EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r.SetResultMemo(NewResultMemo(0))
	circuits := make([]*Circuit, 0, 2)
	for _, name := range []string{"ham7", "4bitadder"} {
		c, err := GenerateFT(name)
		if err != nil {
			t.Fatal(err)
		}
		circuits = append(circuits, c)
	}
	p2 := DefaultParams()
	p2.QubitSpeed = 0.002
	paramSets := []Params{DefaultParams(), p2}

	cold, err := r.SweepGridSources(context.Background(), CircuitSources(circuits), paramSets)
	if err != nil {
		t.Fatal(err)
	}
	st := r.ResultMemo().Stats()
	if st.Hits != 0 || st.Misses != 4 || st.Entries != 4 {
		t.Fatalf("cold stats = %+v, want 0 hits / 4 misses / 4 entries", st)
	}
	warm, err := r.SweepGridSources(context.Background(), CircuitSources(circuits), paramSets)
	if err != nil {
		t.Fatal(err)
	}
	st = r.ResultMemo().Stats()
	if st.Hits != 4 || st.Misses != 4 {
		t.Fatalf("warm stats = %+v, want 4 hits / 4 misses", st)
	}
	for k := range cold {
		if warm[k].Err != nil {
			t.Fatalf("warm cell %d: %v", k, warm[k].Err)
		}
		if !reflect.DeepEqual(warm[k].Result, cold[k].Result) {
			t.Fatalf("warm cell %d differs from its cold twin", k)
		}
	}
}

// TestResultMemoHitSkipsAnalyze: a warm by-ref cell must never open or
// analyze its source — the memo answers before ingestion. The second run's
// source has a booby-trapped Open and no Analysis, so reaching either path
// fails the test through the cell error.
func TestResultMemoHitSkipsAnalyze(t *testing.T) {
	r, err := NewRunner(DefaultParams(), EstimateOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.SetResultMemo(NewResultMemo(0))
	c, err := GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := CircuitDigest(c)
	if err != nil {
		t.Fatal(err)
	}
	warmSrc := AnalysisSource(c.Name, a)
	warmSrc.Digest = digest
	params := []Params{DefaultParams()}
	cold, err := r.SweepGridSources(context.Background(), []Source{warmSrc}, params)
	if err != nil || cold[0].Err != nil {
		t.Fatalf("cold run: %v / %v", err, cold[0].Err)
	}

	trapped := Source{
		Name:   c.Name,
		Digest: digest,
		Open: func() (GateStream, error) {
			return nil, errors.New("memo hit must not open the source")
		},
	}
	warm, err := r.SweepGridSources(context.Background(), []Source{trapped}, params)
	if err != nil {
		t.Fatal(err)
	}
	if warm[0].Err != nil {
		t.Fatalf("warm cell reached the source: %v", warm[0].Err)
	}
	if !reflect.DeepEqual(warm[0].Result, cold[0].Result) {
		t.Fatal("memo-served cell differs from its cold twin")
	}
	if st := r.ResultMemo().Stats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want exactly 1 hit", st)
	}
}

// TestResultMemoSingleFlight: concurrent rows with the same (digest,
// params) key coalesce on one computation. Every row of a grid of identical
// circuits must agree bitwise, and the memo must record exactly one miss.
func TestResultMemoSingleFlight(t *testing.T) {
	r, err := NewRunner(DefaultParams(), EstimateOptions{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	r.SetResultMemo(NewResultMemo(0))
	c, err := GenerateFT("ham7")
	if err != nil {
		t.Fatal(err)
	}
	circuits := []*Circuit{c, c, c, c, c, c, c, c}
	cells, err := r.SweepGridSources(context.Background(), CircuitSources(circuits), []Params{DefaultParams()})
	if err != nil {
		t.Fatal(err)
	}
	for k, cell := range cells {
		if cell.Err != nil {
			t.Fatalf("cell %d: %v", k, cell.Err)
		}
		if !reflect.DeepEqual(cell.Result, cells[0].Result) {
			t.Fatalf("cell %d diverges from cell 0", k)
		}
	}
	st := r.ResultMemo().Stats()
	if st.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss (single flight)", st)
	}
	if st.Hits != uint64(len(circuits)-1) {
		t.Fatalf("stats = %+v, want %d hits", st, len(circuits)-1)
	}
}

// TestResultMemoEviction: the LRU bound holds and evicted keys recompute.
func TestResultMemoEviction(t *testing.T) {
	m := NewResultMemo(2)
	fill := func(key string) bool {
		e, owned := m.cache.Claim(key)
		if owned {
			m.cache.Fulfill(e, &EstimateResult{}, nil)
		}
		return owned
	}
	for _, key := range []string{"a", "b", "c"} { // c evicts a
		if !fill(key) {
			t.Fatalf("key %q: expected to own the first claim", key)
		}
	}
	st := m.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 entries / 1 eviction", st)
	}
	if !fill("a") {
		t.Fatal("evicted key must miss")
	}
	if fill("c") {
		t.Fatal("resident key must hit")
	}
}

// TestResultMemoErrorsNotCached: a failed computation is unpublished before
// its waiters wake, so the next claim recomputes instead of replaying the
// error, and waiters observe the failure (nil result, non-nil error).
func TestResultMemoErrorsNotCached(t *testing.T) {
	m := NewResultMemo(0)
	e, owned := m.cache.Claim("k")
	if !owned {
		t.Fatal("first claim must be owned")
	}
	waiter, ownedTwice := m.cache.Claim("k")
	if ownedTwice || waiter != e {
		t.Fatal("second claim while in flight must return the same entry unowned")
	}
	m.cache.Fulfill(e, nil, fmt.Errorf("boom"))
	if res, err := waiter.Wait(context.Background()); res != nil || err == nil {
		t.Fatalf("waiter got (%v, %v), want (nil, error)", res, err)
	}
	if st := m.Stats(); st.Entries != 0 {
		t.Fatalf("failed entry still resident: %+v", st)
	}
	if _, owned := m.cache.Claim("k"); !owned {
		t.Fatal("claim after a failed flight must recompute")
	}
}

// TestResultMemoWaitCancellation: a waiter blocked on a foreign entry
// unblocks with the context error when its own request is cancelled.
func TestResultMemoWaitCancellation(t *testing.T) {
	m := NewResultMemo(0)
	e, _ := m.cache.Claim("k") // never fulfilled
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait = %v, want context.Canceled", err)
	}
}

// TestResultMemoDisabledMatches: memo on and memo off produce bitwise
// identical grids — the memo is invisible to results.
func TestResultMemoDisabledMatches(t *testing.T) {
	c, err := GenerateFT("4bitadder")
	if err != nil {
		t.Fatal(err)
	}
	paramSets := gridParamSets()
	plain, err := NewRunner(DefaultParams(), EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	memoized, err := NewRunner(DefaultParams(), EstimateOptions{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	memoized.SetResultMemo(NewResultMemo(0))
	want, err := plain.SweepGridSources(context.Background(), CircuitSources([]*Circuit{c}), paramSets)
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []string{"cold", "warm"} {
		got, err := memoized.SweepGridSources(context.Background(), CircuitSources([]*Circuit{c}), paramSets)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k].Err != nil {
				t.Fatalf("%s cell %d: %v", pass, k, got[k].Err)
			}
			if !reflect.DeepEqual(got[k].Result, want[k].Result) {
				t.Fatalf("%s cell %d diverges from the memo-free grid", pass, k)
			}
		}
	}
}
