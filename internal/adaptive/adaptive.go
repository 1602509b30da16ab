// Package adaptive implements the paper's stated future work ("Future
// work will study adaptive workload-aware approaches"): combining the
// cheap ML-guided global search (SAML) with a small budget of real
// measurements spent adaptively around the suggested configuration.
//
// SAML's residual gap to the EM optimum (Table VI: ~10% at 1000
// iterations) comes from prediction error: the predicted optimum is near,
// but not at, the measured optimum. Refine spends a few dozen real
// experiments hill-climbing from SAML's suggestion under measurement,
// closing most of that gap at a tiny fraction of EM's 19,926
// experiments.
package adaptive

import (
	"fmt"
	"math"

	"hetopt/internal/core"
	"hetopt/internal/search"
	"hetopt/internal/space"
)

// Options configures Refine.
type Options struct {
	// MeasureBudget caps the number of real measurements spent on
	// refinement. Zero selects 48.
	MeasureBudget int
	// MaxRounds caps hill-climbing rounds (each round scans the
	// neighborhood of the incumbent). Zero selects 16.
	MaxRounds int
	// Parallelism is the worker count for scanning a round's neighborhood.
	// A round is measured concurrently only when the remaining budget
	// covers the whole neighborhood, so the measurements spent and the
	// refined configuration are identical at every parallelism level.
	// Zero or one measures sequentially.
	Parallelism int
	// Objective selects what refinement minimizes (nil = the paper's
	// makespan). Use the same objective as the seeding search so the
	// hill-climb improves the quantity the search optimized.
	Objective core.Objective
}

func (o Options) budget() int {
	if o.MeasureBudget <= 0 {
		return 48
	}
	return o.MeasureBudget
}

func (o Options) rounds() int {
	if o.MaxRounds <= 0 {
		return 16
	}
	return o.MaxRounds
}

// Result reports a refinement run. The E fields are values of the
// objective the refinement ran under (the makespan by default).
type Result struct {
	// Start and StartE are the seed configuration and its measured
	// objective.
	Start  space.Config
	StartE float64
	// Config and MeasuredE are the refined incumbent.
	Config    space.Config
	MeasuredE float64
	// Measurements counts real experiments spent (including measuring the
	// seed).
	Measurements int
	// Rounds is the number of completed hill-climbing rounds.
	Rounds int
}

// Improvement returns the relative gain of refinement over the seed.
func (r Result) Improvement() float64 {
	if r.StartE == 0 {
		return 0
	}
	return (r.StartE - r.MeasuredE) / r.StartE
}

// Refine measures the seed configuration and improves it under real
// measurements. It hill-climbs: each round evaluates the
// one-step neighbors (adjacent levels for ordered parameters, all
// alternatives for categorical ones) of the incumbent and moves to the
// best improvement, stopping at a local measured optimum, the
// measurement budget, or the round cap.
func Refine(inst *core.Instance, seed space.Config, opt Options) (Result, error) {
	if err := inst.Validate(core.EM); err != nil {
		return Result{}, err
	}
	schema := inst.Schema
	idx, err := schema.Index(seed)
	if err != nil {
		return Result{}, fmt.Errorf("adaptive: seed configuration: %w", err)
	}
	budget := opt.budget()
	used := 0
	obj := opt.Objective
	if obj == nil {
		obj = core.TimeObjective{}
	}
	// energy measures one candidate and scores it under the objective;
	// measure additionally enforces the budget (the parallel round scan
	// accounts for the budget itself).
	energy := func(candidate []int) (float64, error) {
		cfg, err := schema.Config(candidate)
		if err != nil {
			return 0, err
		}
		t, err := inst.Measurer.Evaluate(cfg)
		if err != nil {
			return 0, err
		}
		return obj.Value(t.E(), t.Joules()), nil
	}
	measure := func(candidate []int) (float64, error) {
		if used >= budget {
			return math.Inf(1), nil
		}
		e, err := energy(candidate)
		if err != nil {
			return 0, err
		}
		used++
		return e, nil
	}

	curE, err := measure(idx)
	if err != nil {
		return Result{}, err
	}
	res := Result{Start: seed, StartE: curE}

	params := schema.Space().Params
	cand := make([]int, len(idx))
	workers := search.Workers(opt.Parallelism)
	for round := 0; round < opt.rounds() && used < budget; round++ {
		// Gather the round's neighborhood: adjacent levels for ordered
		// parameters, all alternatives for categorical ones.
		type move struct{ param, value int }
		var moves []move
		for pi := range params {
			p := &params[pi]
			if p.Kind == space.Ordered {
				if idx[pi] > 0 {
					moves = append(moves, move{pi, idx[pi] - 1})
				}
				if idx[pi] < p.Levels()-1 {
					moves = append(moves, move{pi, idx[pi] + 1})
				}
			} else {
				for v := 0; v < p.Levels(); v++ {
					if v != idx[pi] {
						moves = append(moves, move{pi, v})
					}
				}
			}
		}

		bestE := curE
		bestParam, bestValue := -1, 0
		if workers > 1 && budget-used >= len(moves) {
			// The whole neighborhood fits the budget: measure it
			// concurrently and select exactly as the sequential scan would
			// (lowest energy, earliest move among ties).
			energies := make([]float64, len(moves))
			err := search.ForEach(len(moves), workers, func(i int) error {
				c := make([]int, len(idx))
				copy(c, idx)
				c[moves[i].param] = moves[i].value
				var err error
				energies[i], err = energy(c)
				return err
			})
			if err != nil {
				return Result{}, err
			}
			used += len(moves)
			for i, e := range energies {
				if e < bestE {
					bestE = e
					bestParam, bestValue = moves[i].param, moves[i].value
				}
			}
		} else {
			for _, mv := range moves {
				if used >= budget {
					break
				}
				copy(cand, idx)
				cand[mv.param] = mv.value
				e, err := measure(cand)
				if err != nil {
					return Result{}, err
				}
				if e < bestE {
					bestE = e
					bestParam, bestValue = mv.param, mv.value
				}
			}
		}
		if bestParam < 0 {
			break // local measured optimum
		}
		idx[bestParam] = bestValue
		curE = bestE
		res.Rounds++
	}

	cfg, err := schema.Config(idx)
	if err != nil {
		return Result{}, err
	}
	res.Config = cfg
	res.MeasuredE = curE
	res.Measurements = used
	return res, nil
}

// TuneAndRefine is the adaptive workload-aware pipeline: SAML proposes a
// configuration from predictions (one real experiment), then Refine
// spends the measurement budget improving it. The total experiment count
// stays two orders of magnitude below enumeration. When refineOpt leaves
// Objective nil, refinement inherits the objective of the SAML search so
// both stages minimize the same quantity.
func TuneAndRefine(inst *core.Instance, samlOpt core.Options, refineOpt Options) (core.Result, Result, error) {
	saml, err := core.Run(core.SAML, inst, samlOpt)
	if err != nil {
		return core.Result{}, Result{}, err
	}
	if refineOpt.Objective == nil {
		refineOpt.Objective = samlOpt.Objective
	}
	refined, err := Refine(inst, saml.Config, refineOpt)
	if err != nil {
		return core.Result{}, Result{}, err
	}
	return saml, refined, nil
}
