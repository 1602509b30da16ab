package strategy

import (
	"fmt"
	"math"

	"hetopt/internal/search"
	"hetopt/internal/space"
)

// Exhaustive is the paper's enumeration ("brute-force") ported onto the
// strategy layer: it visits every state of a product-space problem
// exactly once, sharding the ordinal range into contiguous sub-ranges
// (space.ForEachRange over a space built from the problem's levels)
// scanned concurrently. The winner is the lowest energy at the lowest
// ordinal — identical to the sequential scan at any worker count.
//
// It requires Spaced, ignores Options.Budget and Options.Restarts
// (enumeration is certainly optimal and visits each state once; there
// is nothing to restart), and reports Worker 0: its decomposition is
// data-parallel, not a set of independent searches.
type Exhaustive struct{}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

// productSpace rebuilds the generic index space of a Spaced problem, so
// enumeration reuses space.ForEachRange's ordinal sharding machinery.
func productSpace(p Spaced) (*space.Space, error) {
	params := make([]space.Param, p.Dim())
	for i := range params {
		levels := p.Levels(i)
		if levels <= 0 {
			return nil, fmt.Errorf("strategy: exhaustive: dimension %d has no levels", i)
		}
		vals := make([]float64, levels)
		for j := range vals {
			vals[j] = float64(j)
		}
		params[i] = space.Param{Name: fmt.Sprintf("p%d", i), Kind: space.Ordered, Values: vals}
	}
	return space.New(params...)
}

// Minimize implements Strategy.
func (Exhaustive) Minimize(p Problem, opt Options) (Result, error) {
	sp, err := spacedOrErr("exhaustive", p)
	if err != nil {
		return Result{}, err
	}
	prod, err := productSpace(sp)
	if err != nil {
		return Result{}, err
	}
	size := prod.Size()
	workers := search.Workers(opt.Parallelism)
	if workers > size {
		workers = size
	}
	type shardBest struct {
		e     float64
		ord   int
		evals int
	}
	merge := func(sb *shardBest, e float64, ord int) {
		sb.evals++
		if e = sanitize(e); sb.ord < 0 || e < sb.e {
			sb.e = e
			sb.ord = ord
		}
	}
	// scan decodes its range in fixed-size chunks into a reused backing
	// array and evaluates each chunk in one energyBatch call. The merge
	// still walks ordinals in order, so the (energy, ordinal) winner is
	// the sequential one.
	scan := func(lo, hi int) (shardBest, error) {
		sb := shardBest{e: math.Inf(1), ord: -1}
		const chunk = 256
		dim := sp.Dim()
		backing := make([]int, chunk*dim)
		states := make([][]int, chunk)
		for i := range states {
			states[i] = backing[i*dim : (i+1)*dim : (i+1)*dim]
		}
		energies := make([]float64, chunk)
		for start := lo; start < hi; start += chunk {
			end := start + chunk
			if end > hi {
				end = hi
			}
			n := end - start
			fill := 0
			if err := prod.ForEachRange(start, end, func(ord int, idx []int) error {
				copy(states[fill], idx)
				fill++
				return nil
			}); err != nil {
				return sb, err
			}
			if err := energyBatch(sp, states[:n], energies[:n]); err != nil {
				return sb, err
			}
			for i := 0; i < n; i++ {
				merge(&sb, energies[i], start+i)
			}
		}
		return sb, nil
	}

	shards := search.Shards(size, workers)
	bests := make([]shardBest, len(shards))
	err = search.ForEach(len(shards), workers, func(si int) error {
		var err error
		bests[si], err = scan(shards[si][0], shards[si][1])
		return err
	})
	if err != nil {
		return Result{}, err
	}

	total := shardBest{e: math.Inf(1), ord: -1}
	for _, sb := range bests {
		total.evals += sb.evals
		// Shards are merged in ordinal order, so the first strict
		// improvement reproduces the sequential (energy, ordinal) winner;
		// an all-+Inf space yields its lowest ordinal.
		if sb.ord >= 0 && (total.ord < 0 || sb.e < total.e) {
			total.e = sb.e
			total.ord = sb.ord
		}
	}
	if total.ord < 0 {
		return Result{}, fmt.Errorf("strategy: exhaustive: empty space")
	}
	best, err := prod.Unflatten(total.ord)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Best:        best,
		BestEnergy:  total.e,
		Evaluations: total.evals,
		Worker:      0,
		Workers:     1,
	}, nil
}
