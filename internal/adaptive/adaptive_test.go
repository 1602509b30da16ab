package adaptive

import (
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// fixture builds a paper-space instance with trained models (small
// boosting budget keeps the test fast).
func fixture(t *testing.T, g dna.Genome) *core.Instance {
	t.Helper()
	platform := offload.NewPlatform()
	models, err := core.Train(platform, core.PaperTrainingPlan(), core.TrainOptions{
		Boost:     ml.BoostOptions{Rounds: 60, LearningRate: 0.15, Tree: ml.TreeOptions{MaxDepth: 6, MinLeaf: 5}, Subsample: 0.9, Seed: 1},
		SplitSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := offload.GenomeWorkload(g)
	pred, err := core.NewPredictor(models, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	return &core.Instance{
		Schema:    space.PaperSchema(),
		Measurer:  core.NewMeasurer(platform, w),
		Predictor: pred,
	}
}

func seedConfig() space.Config {
	return space.Config{
		HostThreads: 24, HostAffinity: machine.AffinityNone,
		DeviceThreads: 120, DeviceAffinity: machine.AffinityScatter,
		HostFraction: 30,
	}
}

func TestRefineImprovesPoorSeed(t *testing.T) {
	inst := fixture(t, dna.Human)
	res, err := refine(inst, seedConfig(), Options{MeasureBudget: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredE > res.StartE {
		t.Fatalf("refinement worsened the seed: %g -> %g", res.StartE, res.MeasuredE)
	}
	if res.Improvement() <= 0.05 {
		t.Fatalf("expected a clear improvement from a poor seed, got %.1f%%", 100*res.Improvement())
	}
	if res.Measurements > 120 {
		t.Fatalf("budget exceeded: %d", res.Measurements)
	}
	if _, err := inst.Schema.Index(res.Config); err != nil {
		t.Fatalf("refined config left the space: %v", err)
	}
}

func TestRefineRespectsBudget(t *testing.T) {
	inst := fixture(t, dna.Cat)
	inst.Measurer.ResetCount()
	res, err := refine(inst, seedConfig(), Options{MeasureBudget: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Measurements > 10 {
		t.Fatalf("measurements = %d, budget 10", res.Measurements)
	}
	if inst.Measurer.Count() != res.Measurements {
		t.Fatalf("measurer saw %d, result reports %d", inst.Measurer.Count(), res.Measurements)
	}
}

func TestRefineStopsAtLocalOptimum(t *testing.T) {
	inst := fixture(t, dna.Dog)
	// refine twice: the second run from the first result must make no
	// further progress (it is already a measured local optimum) as long
	// as the budget was not the binding constraint.
	first, err := refine(inst, seedConfig(), Options{MeasureBudget: 500, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	second, err := refine(inst, first.Config, Options{MeasureBudget: 500, MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	if second.MeasuredE < first.MeasuredE-1e-12 {
		t.Fatalf("second refinement improved further (%g -> %g): first run was not at a local optimum",
			first.MeasuredE, second.MeasuredE)
	}
	if second.Rounds != 0 {
		t.Fatalf("second refinement took %d rounds, want 0", second.Rounds)
	}
}

func TestRefineRejectsForeignSeed(t *testing.T) {
	inst := fixture(t, dna.Human)
	bad := seedConfig()
	bad.HostThreads = 7 // not a schema level
	if _, err := refine(inst, bad, Options{}); err == nil {
		t.Fatal("foreign seed should fail")
	}
}

func TestTuneAndRefinePipeline(t *testing.T) {
	inst := fixture(t, dna.Mouse)
	inst.Measurer.ResetCount()
	saml, refined, err := TuneAndRefine(inst,
		core.Options{Iterations: 500, Seed: 3},
		Options{MeasureBudget: 60})
	if err != nil {
		t.Fatal(err)
	}
	if refined.MeasuredE > saml.MeasuredE() {
		t.Fatalf("refinement worsened SAML's suggestion: %g -> %g", saml.MeasuredE(), refined.MeasuredE)
	}
	// Total measurements stay far below enumeration.
	if total := inst.Measurer.Count(); total > 70 {
		t.Fatalf("adaptive pipeline spent %d measurements", total)
	}
}
