package leqa

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
)

// GridCell is one (source, parameter-set) estimate inside a cross-product
// sweep. Cells keep input order: the cell for source i under parameter set
// j is always at index i·len(paramSets)+j, whichever worker ran it.
type GridCell struct {
	// CircuitIndex and ParamsIndex locate the cell in the cross product.
	CircuitIndex int
	ParamsIndex  int
	// Name echoes the circuit name.
	Name string
	// Params echoes the parameter set the cell was estimated under.
	Params Params
	// Result is the estimate; nil when Err is set.
	Result *EstimateResult
	// Err is the per-cell failure (non-FT circuit, analysis failure,
	// cancellation), leaving the rest of the grid intact.
	Err error
}

// gridEstimators validates every parameter set against the runner's options
// and binds one estimator per set.
func (r *Runner) gridEstimators(paramSets []Params) ([]*core.Estimator, error) {
	ests := make([]*core.Estimator, len(paramSets))
	for j, p := range paramSets {
		est, err := core.New(p, r.opt)
		if err != nil {
			return nil, fmt.Errorf("leqa: parameter set %d: %w", j, err)
		}
		ests[j] = est
	}
	return ests, nil
}

// gridColumns canonicalizes one grid request's parameter columns: keys[j]
// is column j's exact fabric.ParamsKey, rep[j] is the lowest column with an
// identical key (rep[j] == j for representatives), and uniq lists the
// representatives in ascending column order. Duplicate columns — common in
// scripted design-space sweeps that perturb one field through a list with
// repeats — are estimated once and share the representative's Result
// pointer (Results are immutable by convention).
type gridColumns struct {
	keys []fabric.ParamsKey
	rep  []int
	uniq []int
}

func newGridColumns(paramSets []Params) *gridColumns {
	cols := &gridColumns{
		keys: make([]fabric.ParamsKey, len(paramSets)),
		rep:  make([]int, len(paramSets)),
	}
	first := make(map[fabric.ParamsKey]int, len(paramSets))
	for j, p := range paramSets {
		k := p.Key()
		cols.keys[j] = k
		if r, ok := first[k]; ok {
			cols.rep[j] = r
			continue
		}
		first[k] = j
		cols.rep[j] = j
		cols.uniq = append(cols.uniq, j)
	}
	return cols
}
