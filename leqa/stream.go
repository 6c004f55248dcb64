package leqa

import (
	"context"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lru"
	"repro/leqa/trace"
)

// emitRow adapts a per-cell emit callback to the row-granular pool stream.
func emitRow(emit func(GridCell) error) func([]GridCell) error {
	return func(row []GridCell) error {
		for _, cell := range row {
			if err := emit(cell); err != nil {
				return err
			}
		}
		return nil
	}
}

// estimateRow fills one grid row — one circuit under every parameter column
// — in place. digest lazily reports the circuit's content digest (ok ==
// false when unknown or not worth computing); analyze lazily produces the
// shared Analysis; both run at most once. The row consults the result memo
// first (when attached and the digest is known): memo-hit columns skip
// analyze and estimate entirely, and a row whose unique columns all hit
// never touches the circuit at all. Remaining columns estimate as one
// batched call, and duplicate columns alias their representative's Result.
//
// Memo single-flight discipline: claim every column non-blocking first,
// compute and fulfill all owned entries, and only then wait on entries
// owned by other rows — rows with overlapping claim sets therefore cannot
// deadlock. Errors are never memoized; if a foreign owner fails, the waiter
// recomputes its column directly once.
func (r *Runner) estimateRow(ctx context.Context, row []GridCell, ests []*core.Estimator, cols *gridColumns,
	digest func() (string, bool), analyze func() (*analysis.Analysis, error), ar *analysis.Arena) {
	res := make([]*EstimateResult, len(row))
	errs := make([]error, len(row))

	var owned, foreign map[int]*lru.Entry[string, *EstimateResult]
	probed := false
	if r.memo != nil {
		if d, ok := digest(); ok {
			probed = true
			for _, j := range cols.uniq {
				e, own := r.memo.cache.Claim(r.memoKey(d, cols.keys[j]))
				if own {
					if owned == nil {
						owned = make(map[int]*lru.Entry[string, *EstimateResult])
					}
					owned[j] = e
				} else {
					if foreign == nil {
						foreign = make(map[int]*lru.Entry[string, *EstimateResult])
					}
					foreign[j] = e
				}
			}
		}
	}
	compute := cols.uniq
	if len(foreign) > 0 {
		compute = make([]int, 0, len(cols.uniq))
		for _, j := range cols.uniq {
			if _, ok := foreign[j]; !ok {
				compute = append(compute, j)
			}
		}
	}

	var a *analysis.Analysis
	var aerr error
	analyzed := false
	ensure := func() (*analysis.Analysis, error) {
		if !analyzed {
			analyzed = true
			a, aerr = analyze()
		}
		return a, aerr
	}

	if len(compute) > 0 {
		if a, err := ensure(); err != nil {
			for _, j := range compute {
				errs[j] = err
			}
		} else if err := ctx.Err(); err != nil {
			for _, j := range compute {
				errs[j] = err
			}
		} else {
			sub := make([]*core.Estimator, len(compute))
			for i, j := range compute {
				sub[i] = ests[j]
			}
			t := time.Now()
			bres, berrs := core.EstimateAnalysisBatch(sub, a, ar)
			observePhaseDetail(ctx, trace.SpanEstimate, t, func() string {
				d := "cols=" + itoa(len(sub))
				if probed {
					d += " memo=miss"
				}
				return d
			})
			for i, j := range compute {
				res[j], errs[j] = bres[i], berrs[i]
			}
		}
		for _, j := range compute {
			if e, ok := owned[j]; ok {
				r.memo.cache.Fulfill(e, res[j], errs[j])
			}
		}
	} else if probed && len(cols.uniq) > 0 {
		// Every unique column is in flight or resident elsewhere: the row
		// skips analyze and estimate entirely. Record the skip on the trace
		// so a warm cell's span shows where the time didn't go.
		observePhaseDetail(ctx, trace.SpanEstimate, time.Now(), func() string {
			return "cols=0 memo=hit"
		})
	}

	for j, e := range foreign {
		cr, cerr := e.Wait(ctx)
		switch {
		case cerr == nil:
			res[j] = cr
		case ctx.Err() != nil:
			errs[j] = ctx.Err()
		default:
			// The owning row failed and unpublished the entry. Its error may
			// have been transient (its context, not ours), so recompute this
			// column directly once rather than inheriting it.
			if a, err := ensure(); err != nil {
				errs[j] = err
			} else {
				t := time.Now()
				res[j], errs[j] = ests[j].EstimateAnalysis(a, ar)
				observePhase(ctx, trace.SpanEstimate, t)
			}
		}
	}

	for jj := range row {
		j := cols.rep[jj]
		row[jj].Result, row[jj].Err = res[j], errs[j]
	}
}
