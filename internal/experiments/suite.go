// Package experiments regenerates every table and figure of the paper's
// evaluation (Section II-C and Section IV). Each experiment has a typed
// result, a driver method on Suite, and a text rendering; DESIGN.md maps
// experiment ids to the modules involved and bench_test.go exposes one
// benchmark per artifact.
package experiments

import (
	"fmt"

	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// trainSplitSeed seeds every model fit of the report; the report's
// published numbers are pinned to it.
const trainSplitSeed = 7

// Suite carries the shared state of an experiment session: the simulated
// platform, the paper's configuration space, and lazily trained
// performance models.
type Suite struct {
	// Platform is the measurement substrate.
	Platform *offload.Platform
	// Schema is the configuration space (19,926 configurations).
	Schema *space.Schema
	// Plan is the model-training grid (7,200 experiments).
	Plan core.TrainingPlan
	// Seed drives simulated annealing; per-run seeds derive from it.
	Seed int64
	// Repeats is the number of SA seeds averaged per (genome, budget)
	// cell in the method-comparison experiments. The paper reports single
	// runs; averaging a few seeds recovers the trend its tables show
	// without the jitter of one trajectory.
	Repeats int
	// Parallelism is the worker count handed to every optimization run:
	// enumerations shard over it and annealing chains fan out across it.
	// Results are identical at any level (the engine is deterministic);
	// only wall-clock time changes. Zero or one runs sequentially.
	Parallelism int
	// Strategy, when non-nil, is injected into every method run, so the
	// whole report regenerates under a different explorer (e.g. the
	// racing portfolio). Nil keeps the paper presets: enumeration for
	// EM/EML, simulated annealing for SAM/SAML.
	Strategy strategy.Strategy
	// Reference, when non-zero, replaces the human genome as the
	// workload of the single-workload experiments (bi-objective,
	// strategy comparison, extensions, ablations). cmd/hetbench sets it
	// from -workload.
	Reference offload.Workload

	models *core.Models
}

// NewSuite returns a Suite with the paper's defaults.
func NewSuite() *Suite {
	return &Suite{
		Platform: offload.NewPlatform(),
		Schema:   space.PaperSchema(),
		Plan:     core.PaperTrainingPlan(),
		Seed:     1,
		Repeats:  7,
	}
}

// NewScenarioSuite returns a Suite regenerating the report for a
// registered scenario: the platform's substrate, schema and
// family-specific training plan, with the resolved workload as the
// single-workload reference. The default scenario ("paper",
// "dna:human") reproduces NewSuite exactly.
func NewScenarioSuite(platformName, workloadName string) (*Suite, error) {
	sc, err := scenario.Lookup(platformName, workloadName)
	if err != nil {
		return nil, err
	}
	return &Suite{
		Platform:  sc.Platform.Platform(),
		Schema:    sc.Schema,
		Plan:      sc.TrainingPlan(),
		Seed:      1,
		Repeats:   7,
		Reference: sc.Workload,
	}, nil
}

// reference returns the workload of the single-workload experiments.
func (s *Suite) reference() offload.Workload {
	if s.Reference.Name != "" {
		return s.Reference
	}
	return offload.GenomeWorkload(dna.Human)
}

// coreOpts assembles method-run options carrying the suite's
// parallelism and injected strategy.
func (s *Suite) coreOpts(iters int, seed int64) core.Options {
	return core.Options{Iterations: iters, Seed: seed, Parallelism: s.Parallelism, Strategy: s.Strategy}
}

// Models trains (once) and returns the performance-prediction models.
func (s *Suite) Models() (*core.Models, error) {
	if s.models != nil {
		return s.models, nil
	}
	m, err := core.Train(s.Platform, s.Plan, core.TrainOptions{SplitSeed: trainSplitSeed})
	if err != nil {
		return nil, fmt.Errorf("experiments: training models: %w", err)
	}
	s.models = m
	return m, nil
}

// instance assembles a method-run instance for a workload.
func (s *Suite) instance(w offload.Workload) (*core.Instance, error) {
	models, err := s.Models()
	if err != nil {
		return nil, err
	}
	pred, err := core.NewPredictor(models, w, s.Platform.Model())
	if err != nil {
		return nil, err
	}
	return &core.Instance{
		Schema:    s.Schema,
		Measurer:  core.NewMeasurer(s.Platform, w),
		Predictor: pred,
	}, nil
}

// repeats returns the effective SA repeat count.
func (s *Suite) repeats() int {
	if s.Repeats <= 0 {
		return 1
	}
	return s.Repeats
}
