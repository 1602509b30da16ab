package experiments

import (
	"fmt"
	"slices"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/scenario"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
	"hetopt/internal/tables"
)

// GapRow is one scenario of the exact-gap table: the branch-and-bound
// proven optimum and every heuristic's measured distance from it.
type GapRow struct {
	// Scenario and Platform name the row ("spmv", "dag:fork-join", ...).
	Scenario, Platform string
	// OptimumSec is the proven optimal objective (makespan) and
	// MatchesEnumeration whether independent exhaustive enumeration
	// reproduced the identical optimum — the equivalence check run as an
	// experiment rather than trusted.
	OptimumSec         float64
	MatchesEnumeration bool
	// SpaceSize is the number of configurations, Explored how many the
	// exact solver evaluated before proving optimality (the rest were
	// pruned by admissible bounds).
	SpaceSize, Explored int
	// GapPct[i] is heuristic i's percent distance above the proven
	// optimum (0 = the heuristic found a certified optimal answer).
	GapPct []float64
}

// ExactGapResult is the exact-vs-heuristics study over every registered
// scenario: divisible families x platforms plus every DAG preset.
type ExactGapResult struct {
	// Heuristics labels the gap columns, in GapPct order.
	Heuristics []string
	Rows       []GapRow
	// Budget is the per-worker evaluation budget each heuristic got.
	Budget int
}

// ExactGapTable proves the optimum of every enumerable scenario space
// with the exact branch-and-bound strategy, cross-checks it against
// plain exhaustive enumeration, and measures how far each heuristic
// lands from it under a fixed budget. This is the experiment the exact
// layer exists for: heuristic quality reported against a certificate
// instead of against the best heuristic.
func (s *Suite) ExactGapTable(budget int) (*ExactGapResult, error) {
	heuristics := heuristicLineup()
	res := &ExactGapResult{Budget: budget}
	for _, h := range heuristics {
		res.Heuristics = append(res.Heuristics, h.Name())
	}

	solve := func(scenarioName, platformName string, prob strategy.Problem, size int) error {
		exact := strategy.Exact{Prove: true}
		opt := strategy.Options{Seed: s.Seed, Parallelism: s.Parallelism}
		er, err := exact.Minimize(prob, opt)
		if err != nil {
			return fmt.Errorf("experiments: exact on %s/%s: %w", scenarioName, platformName, err)
		}
		cert, ok := er.Certificate()
		if !ok || !cert.Optimal {
			return fmt.Errorf("experiments: exact on %s/%s returned no proof: %+v", scenarioName, platformName, cert)
		}
		ref, err := strategy.Exhaustive{}.Minimize(prob, opt)
		if err != nil {
			return fmt.Errorf("experiments: enumeration on %s/%s: %w", scenarioName, platformName, err)
		}
		row := GapRow{
			Scenario:           scenarioName,
			Platform:           platformName,
			OptimumSec:         er.BestEnergy,
			MatchesEnumeration: er.BestEnergy == ref.BestEnergy && slices.Equal(er.Best, ref.Best),
			SpaceSize:          size,
			Explored:           cert.Explored,
		}
		hopt := strategy.Options{Budget: budget, Seed: s.Seed, Parallelism: s.Parallelism}
		for _, h := range heuristics {
			hr, err := h.Minimize(prob, hopt)
			if err != nil {
				return fmt.Errorf("experiments: %s on %s/%s: %w", h.Name(), scenarioName, platformName, err)
			}
			gap := 0.0
			if er.BestEnergy > 0 {
				gap = 100 * (hr.BestEnergy - er.BestEnergy) / er.BestEnergy
			}
			row.GapPct = append(row.GapPct, gap)
		}
		res.Rows = append(res.Rows, row)
		return nil
	}

	for _, spec := range scenario.Platforms() {
		schema, err := spec.Schema()
		if err != nil {
			return nil, fmt.Errorf("experiments: gap platform %s: %w", spec.Name, err)
		}
		platform := spec.Platform()
		for _, fam := range scenario.Families() {
			if fam.IsDAG() {
				for _, preset := range fam.Presets {
					sim, err := spec.DAGSim(*preset.Graph)
					if err != nil {
						return nil, fmt.Errorf("experiments: gap dag %s on %s: %w", preset.Name, spec.Name, err)
					}
					prob := graph.NewPlacementProblem(sim)
					if err := solve(fam.Name+":"+preset.Name, spec.Name, prob, 1<<prob.Dim()); err != nil {
						return nil, err
					}
				}
				continue
			}
			w := fam.DefaultWorkload()
			// One shared measurement memo per scenario serves the proof,
			// the enumeration cross-check and every heuristic:
			// measurements are pure, so sharing changes values nowhere.
			shared, err := core.NewSharedMeasurements(platform, w, schema)
			if err != nil {
				return nil, err
			}
			measurer := shared.Instance().MeasureCache
			prob := core.NewBoundedSearchProblem(schema, measurer, core.TimeObjective{}, space.StepMove, platform, w)
			if err := solve(fam.Name, spec.Name, prob, schema.Size()); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// RenderExactGapTable renders the proven-optimum study.
func RenderExactGapTable(res *ExactGapResult) string {
	cols := []string{"platform", "scenario", "space", "explored", "optimum E (s)", "= enum"}
	for _, h := range res.Heuristics {
		cols = append(cols, h+" gap")
	}
	tb := tables.New(fmt.Sprintf(
		"Exact layer: proven optimum per scenario and heuristic gap at %d evaluations per worker",
		res.Budget), cols...)
	allMatch, allPruned := true, true
	for _, r := range res.Rows {
		match := "yes"
		if !r.MatchesEnumeration {
			match, allMatch = "NO", false
		}
		if r.Explored >= r.SpaceSize {
			allPruned = false
		}
		row := []string{
			r.Platform, r.Scenario,
			fmt.Sprintf("%d", r.SpaceSize),
			fmt.Sprintf("%d (%.1f%%)", r.Explored, 100*float64(r.Explored)/float64(r.SpaceSize)),
			tables.F(r.OptimumSec, 4),
			match,
		}
		for _, g := range r.GapPct {
			row = append(row, tables.Percent(g))
		}
		tb.AddRow(row...)
	}
	summary := "every proof matched independent enumeration"
	if !allMatch {
		summary = "MISMATCH against enumeration in at least one scenario (bug!)"
	}
	pruned := "with real pruning in every space"
	if !allPruned {
		pruned = "but at least one space was fully enumerated (no pruning)"
	}
	return tb.String() + fmt.Sprintf("%s, %s\n", summary, pruned)
}
