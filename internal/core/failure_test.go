package core

import (
	"fmt"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// faultyEvaluator fails after a set number of evaluations, simulating a
// testbed that dies mid-campaign.
type faultyEvaluator struct {
	inner     Evaluator
	remaining int
}

func (f *faultyEvaluator) Evaluate(cfg space.Config) (offload.Measurement, error) {
	if f.remaining <= 0 {
		return offload.Measurement{}, fmt.Errorf("injected evaluator failure")
	}
	f.remaining--
	return f.inner.Evaluate(cfg)
}

func TestEnumerationPropagatesEvaluatorFailure(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	inst := &Instance{
		Schema:   smallSchema(t),
		Measurer: NewMeasurer(platform, w),
	}
	// Wrap the real measurer through the search helper directly: the
	// injected failure must abort the run with the injected error.
	faulty := &faultyEvaluator{inner: inst.Measurer, remaining: 7}
	p := &searchProblem{schema: inst.Schema, eval: faulty, obj: TimeObjective{}}
	_, _, err := searchWith(strategy.Exhaustive{}, p, inst.Schema, Options{})
	if err == nil {
		t.Fatal("enumeration should propagate evaluator failure")
	}
	if got := err.Error(); got != "injected evaluator failure" {
		t.Fatalf("unexpected error %q", got)
	}
}

func TestAnnealSearchPropagatesEvaluatorFailure(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	inst := &Instance{Schema: smallSchema(t), Measurer: NewMeasurer(platform, w)}
	faulty := &faultyEvaluator{inner: inst.Measurer, remaining: 12}
	opt := Options{Iterations: 100, Seed: 1}
	p := &searchProblem{schema: inst.Schema, eval: faulty, obj: TimeObjective{}}
	_, _, err := searchWith(opt.strategyFor(SAM), p, inst.Schema, opt)
	if err == nil {
		t.Fatal("annealing should propagate evaluator failure")
	}
}

func TestRunSurvivesExactBudgetBoundary(t *testing.T) {
	// A failure exactly after the final fair-comparison measurement must
	// not surface: SAM with N iterations consumes N+2 measurements.
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	inst := &Instance{Schema: smallSchema(t), Measurer: NewMeasurer(platform, w)}
	res, err := Run(SAM, inst, Options{Iterations: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiments != 52 {
		t.Fatalf("experiments = %d, want 52", res.Experiments)
	}
}

func TestPredictorRejectsInvalidThreads(t *testing.T) {
	platform := offload.NewPlatform()
	models := testModels(t, platform)
	// Prediction for thread counts outside the machine's range must
	// still produce a finite number (models extrapolate); the offload
	// layer is where hardware validity is enforced. Verify the split of
	// responsibilities.
	v, err := models.PredictHost(1024, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatal("prediction must stay positive")
	}
	w := offload.GenomeWorkload(dna.Human)
	cfg := space.Config{HostThreads: -3, HostAffinity: 1, DeviceThreads: 240, DeviceAffinity: 3, HostFraction: 50}
	if _, err := platform.Measure(w, cfg); err == nil {
		t.Fatal("measurement with negative threads must fail")
	}
}
