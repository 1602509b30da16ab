package experiments

import (
	"fmt"
	"math"

	"hetopt/internal/core"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
	"hetopt/internal/tables"
)

// StrategyCell is one (strategy, objective) entry of the comparison.
type StrategyCell struct {
	// MeanObjective is the measured objective value of the suggested
	// configuration, averaged over Suite.Repeats seeds (the search runs
	// on measurements, so the search optimum and its measured value
	// coincide).
	MeanObjective float64
	// PctVsBest is the gap to the column's best strategy; PctVsOptimum
	// is the gap to the column's certified branch-and-bound optimum —
	// distance from a proof, not from the best heuristic.
	PctVsBest    float64
	PctVsOptimum float64
	// MeanEvaluations is the logical evaluation count per run.
	MeanEvaluations float64
}

// StrategyComparisonResult ranks strategies x objectives under equal
// per-worker evaluation budgets, with the portfolio's shared-cache
// accounting.
type StrategyComparisonResult struct {
	// Strategies and Objectives label the table axes; Cells is indexed
	// [strategy][objective].
	Strategies []string
	Objectives []string
	Cells      [][]StrategyCell
	// PortfolioLookups/Unique/Hits aggregate the racing portfolio's
	// shared-cache accounting over every (objective, seed) run: Unique
	// is the number of distinct states evaluated, Hits the rest —
	// lookups the memo served, plus the rare racing duplicate (two
	// members evaluating one state at once) that lost the publish.
	PortfolioLookups, PortfolioUnique, PortfolioHits int
	// PortfolioNeverWorse reports whether the portfolio's best search
	// energy matched or beat its best member's in every single run (it
	// must: every member races with the same seed and budget it gets
	// standalone, and the winner is a min over them).
	PortfolioNeverWorse bool
	// ProvenOptima[oi] is the exact strategy's certified optimum per
	// objective — the reference every PctVsOptimum measures against —
	// and ExactEvaluations[oi] what the proof cost in evaluations.
	ProvenOptima     []float64
	ExactEvaluations []int
}

// heuristicLineup is the paper's annealer (on the core schedule) and
// the four alternative metaheuristics, in reporting order: the members
// StrategyComparison races and ExactGapTable measures against a proven
// optimum.
func heuristicLineup() []strategy.Strategy {
	return []strategy.Strategy{
		strategy.DefaultAnneal(),
		strategy.Genetic{},
		strategy.Tabu{},
		strategy.Local{},
		strategy.Random{},
	}
}

// StrategyComparison is the tentpole experiment of the pluggable search
// layer: every strategy explores the same configuration space under the
// same measured objective and an equal per-worker evaluation budget,
// and the racing portfolio runs all of them concurrently over one
// shared evaluation cache. Evaluation is measurement-driven (the SAM
// column's regime), so rankings compare search quality, not prediction
// error.
func (s *Suite) StrategyComparison(w offload.Workload, budget int) (*StrategyComparisonResult, error) {
	// One shared measurement memo serves the whole comparison:
	// measurement is objective-independent (the memo stores the full
	// Measurement) and seeds repeat across members and objectives, so
	// heavily overlapping states are paid once. Logical per-run
	// accounting (MeanEvaluations, the portfolio's memo stats) is
	// untouched — sharing never changes a reported number.
	shared, err := core.NewSharedMeasurements(s.Platform, w, s.Schema)
	if err != nil {
		return nil, err
	}
	measurer := shared.Instance().MeasureCache
	members := heuristicLineup()
	portfolio := strategy.Portfolio{Members: members}
	objectives := []core.Objective{
		core.TimeObjective{},
		core.EnergyObjective{},
		core.WeightedSumObjective{Alpha: 0.5},
	}

	res := &StrategyComparisonResult{
		Objectives:          make([]string, len(objectives)),
		Cells:               make([][]StrategyCell, len(members)+1),
		PortfolioNeverWorse: true,
		ProvenOptima:        make([]float64, len(objectives)),
		ExactEvaluations:    make([]int, len(objectives)),
	}
	for _, m := range members {
		res.Strategies = append(res.Strategies, m.Name())
	}
	res.Strategies = append(res.Strategies, portfolio.Name())
	for i := range res.Cells {
		res.Cells[i] = make([]StrategyCell, len(objectives))
	}

	repeats := s.repeats()
	for oi, obj := range objectives {
		res.Objectives[oi] = obj.Name()
		// The bounded adapter attaches the roofline pruning oracle, so
		// the certified reference below is cheap; heuristics never read
		// bounds, so their runs are untouched.
		prob := core.NewBoundedSearchProblem(s.Schema, measurer, obj, space.StepMove, s.Platform, w)
		exact, err := strategy.Exact{Prove: true}.Minimize(prob, strategy.Options{Parallelism: s.Parallelism})
		if err != nil {
			return nil, fmt.Errorf("experiments: exact reference for %s: %w", obj.Name(), err)
		}
		cert, ok := exact.Certificate()
		if !ok || !cert.Optimal {
			return nil, fmt.Errorf("experiments: exact reference for %s not proved: %+v", obj.Name(), cert)
		}
		res.ProvenOptima[oi] = exact.BestEnergy
		res.ExactEvaluations[oi] = exact.Evaluations
		for r := 0; r < repeats; r++ {
			opt := strategy.Options{Budget: budget, Seed: s.Seed + int64(r), Parallelism: s.Parallelism}
			bestMember := math.Inf(1)
			for mi, m := range members {
				mres, err := m.Minimize(prob, opt)
				if err != nil {
					return nil, fmt.Errorf("experiments: strategy %s: %w", m.Name(), err)
				}
				res.Cells[mi][oi].MeanObjective += mres.BestEnergy
				res.Cells[mi][oi].MeanEvaluations += float64(mres.Evaluations)
				if mres.BestEnergy < bestMember {
					bestMember = mres.BestEnergy
				}
			}
			pres, err := portfolio.Race(prob, opt)
			if err != nil {
				return nil, fmt.Errorf("experiments: portfolio: %w", err)
			}
			pi := len(members)
			res.Cells[pi][oi].MeanObjective += pres.BestEnergy
			res.Cells[pi][oi].MeanEvaluations += float64(pres.Evaluations)
			res.PortfolioLookups += pres.Lookups
			res.PortfolioUnique += pres.Unique
			res.PortfolioHits += pres.Hits
			if pres.BestEnergy > bestMember {
				res.PortfolioNeverWorse = false
			}
		}
	}

	for oi := range objectives {
		best := math.Inf(1)
		for si := range res.Cells {
			res.Cells[si][oi].MeanObjective /= float64(repeats)
			res.Cells[si][oi].MeanEvaluations /= float64(repeats)
			if res.Cells[si][oi].MeanObjective < best {
				best = res.Cells[si][oi].MeanObjective
			}
		}
		opt := res.ProvenOptima[oi]
		for si := range res.Cells {
			res.Cells[si][oi].PctVsBest = 100 * (res.Cells[si][oi].MeanObjective - best) / best
			if opt > 0 {
				res.Cells[si][oi].PctVsOptimum = 100 * (res.Cells[si][oi].MeanObjective - opt) / opt
			}
		}
	}
	return res, nil
}

// RenderStrategyComparison formats the strategy x objective ranking
// with the portfolio's cache accounting.
func RenderStrategyComparison(res *StrategyComparisonResult, w offload.Workload, budget, repeats int) string {
	cols := []string{"strategy"}
	for _, o := range res.Objectives {
		cols = append(cols, "mean "+o, "pct vs best", "pct vs optimum")
	}
	cols = append(cols, "mean evals")
	tb := tables.New(fmt.Sprintf(
		"Extension: strategy x objective ranking (genome %s, budget %d evaluations per worker, %d seeds, measurement-driven)",
		w.Name, budget, repeats), cols...)
	for si, name := range res.Strategies {
		row := []string{name}
		for oi := range res.Objectives {
			c := res.Cells[si][oi]
			row = append(row, tables.F(c.MeanObjective, 4), tables.Percent(c.PctVsBest), tables.Percent(c.PctVsOptimum))
		}
		row = append(row, tables.F(res.Cells[si][0].MeanEvaluations, 0))
		tb.AddRow(row...)
	}
	never := "never worse than its best member (as constructed)"
	if !res.PortfolioNeverWorse {
		never = "WORSE than its best member in at least one run (bug!)"
	}
	optima := "certified optima:"
	for oi, o := range res.Objectives {
		optima += fmt.Sprintf(" %s=%s (%d evals)", o, tables.F(res.ProvenOptima[oi], 4), res.ExactEvaluations[oi])
	}
	return tb.String() + optima + "\n" + fmt.Sprintf(
		"portfolio shared cache: %d lookups, %d distinct states evaluated, %d hits (%.1f%% of lookups); portfolio best %s\n",
		res.PortfolioLookups, res.PortfolioUnique, res.PortfolioHits,
		100*float64(res.PortfolioHits)/math.Max(1, float64(res.PortfolioLookups)), never)
}
