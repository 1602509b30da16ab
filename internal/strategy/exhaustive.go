package strategy

import (
	"fmt"
	"math"

	"hetopt/internal/search"
)

// Exhaustive is the paper's enumeration ("brute-force") ported onto the
// strategy layer: it visits every state of a product-space problem
// exactly once, sharding the ordinal range into contiguous sub-ranges
// scanned concurrently (lexicographic order coincides with mixed-radix
// ordinal order). The winner is the lowest energy at the lowest
// ordinal — identical to the sequential scan at any worker count.
//
// It requires Spaced, ignores Options.Budget and Options.Restarts
// (enumeration is certainly optimal and visits each state once; there
// is nothing to restart), and reports Worker 0: its decomposition is
// data-parallel, not a set of independent searches.
type Exhaustive struct{}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

// Minimize implements Strategy.
func (Exhaustive) Minimize(p Problem, opt Options) (Result, error) {
	sp, sh, err := productSpace("exhaustive", p)
	if err != nil {
		return Result{}, err
	}
	if sh.size == 0 {
		return Result{}, fmt.Errorf("strategy: exhaustive: space size overflows")
	}
	dim, size := len(sh.levels), sh.size
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
	// scan walks its range with an odometer, evaluating each state in
	// ordinal order, so the (energy, ordinal) winner is the sequential
	// one.
	scan := func(lo, hi int) (shardBest, error) {
		sb := shardBest{e: math.Inf(1), ord: -1}
		idx := make([]int, dim)
		sh.unflatten(idx, lo)
		for ord := lo; ord < hi; ord++ {
			e, err := sp.Energy(idx)
			if err != nil {
				return sb, err
			}
			merge(&sb, e, ord)
			for i := dim - 1; i >= 0; i-- {
				if idx[i]++; idx[i] < sh.levels[i] {
					break
				}
				idx[i] = 0
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
	best := make([]int, dim)
	sh.unflatten(best, total.ord)
	return Result{
		Best:        best,
		BestEnergy:  total.e,
		Evaluations: total.evals,
		Worker:      0,
		Workers:     1,
	}, nil
}
