package core

import (
	"math"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// smallSchema is a reduced configuration space keeping tests fast while
// preserving the structure of the paper space.
func smallSchema(t *testing.T) *space.Schema {
	t.Helper()
	sc, err := space.NewSchema(space.SchemaSpec{
		HostThreads:      []int{4, 24, 48},
		HostAffinities:   []machine.Affinity{machine.AffinityNone, machine.AffinityScatter},
		DeviceThreads:    []int{16, 240},
		DeviceAffinities: []machine.Affinity{machine.AffinityBalanced, machine.AffinityCompact},
		Fractions:        []float64{0, 25, 50, 75, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// smallPlan is a reduced training grid: dense on fractions (the model
// must interpolate sizes) but narrow on the other axes.
func smallPlan() TrainingPlan {
	fractions := make([]float64, 0, 20)
	for f := 5.0; f <= 100; f += 5 {
		fractions = append(fractions, f)
	}
	return TrainingPlan{
		Workloads:        []offload.Workload{offload.GenomeWorkload(dna.Human), offload.GenomeWorkload(dna.Cat)},
		Fractions:        fractions,
		HostThreads:      []int{4, 24, 48},
		HostAffinities:   []machine.Affinity{machine.AffinityNone, machine.AffinityScatter},
		DeviceThreads:    []int{16, 240},
		DeviceAffinities: []machine.Affinity{machine.AffinityBalanced, machine.AffinityCompact},
	}
}

func smallBoost() ml.BoostOptions {
	return ml.BoostOptions{Rounds: 120, LearningRate: 0.12, Tree: ml.TreeOptions{MaxDepth: 6, MinLeaf: 2}, Subsample: 1, Seed: 1}
}

func testModels(t *testing.T, platform *offload.Platform) *Models {
	t.Helper()
	models, err := Train(platform, smallPlan(), TrainOptions{Boost: smallBoost(), SplitSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return models
}

func TestMethodStringAndParse(t *testing.T) {
	for _, m := range []Method{EM, EML, SAM, SAML} {
		parsed, err := ParseMethod(m.String())
		if err != nil || parsed != m {
			t.Errorf("round trip %v failed: %v %v", m, parsed, err)
		}
	}
	if _, err := ParseMethod("genetic"); err == nil {
		t.Error("unknown method should fail")
	}
	if got := Method(9).String(); got != "method(9)" {
		t.Errorf("unknown method string = %q", got)
	}
}

func TestMethodProperties(t *testing.T) {
	// Table II.
	if EM.UsesAnnealing() || EM.UsesML() {
		t.Error("EM is enumeration + measurements")
	}
	if EML.UsesAnnealing() || !EML.UsesML() {
		t.Error("EML is enumeration + ML")
	}
	if !SAM.UsesAnnealing() || SAM.UsesML() {
		t.Error("SAM is SA + measurements")
	}
	if !SAML.UsesAnnealing() || !SAML.UsesML() {
		t.Error("SAML is SA + ML")
	}
}

func TestMeasurerCounts(t *testing.T) {
	platform := offload.NewPlatform()
	m := NewMeasurer(platform, offload.GenomeWorkload(dna.Human))
	cfg := space.Config{HostThreads: 48, HostAffinity: machine.AffinityScatter, DeviceThreads: 240, DeviceAffinity: machine.AffinityBalanced, HostFraction: 60}
	for i := 0; i < 5; i++ {
		if _, err := m.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
	}
	if m.Count() != 5 {
		t.Fatalf("count = %d, want 5", m.Count())
	}
	m.ResetCount()
	if m.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestFeatureEncoding(t *testing.T) {
	x := hostFeatures(24, machine.AffinityScatter, 1500)
	if x[featThreads] != 24 || x[featSizeMB] != 1500 {
		t.Fatalf("features = %v", x)
	}
	// One-hot: none, scatter, compact.
	if x[featAffBase] != 0 || x[featAffBase+1] != 1 || x[featAffBase+2] != 0 {
		t.Fatalf("host affinity one-hot = %v", x[featAffBase:])
	}
	y := deviceFeatures(120, machine.AffinityBalanced, 800)
	if y[featAffBase] != 1 || y[featAffBase+1] != 0 || y[featAffBase+2] != 0 {
		t.Fatalf("device affinity one-hot = %v", y[featAffBase:])
	}
	if len(HostFeatureNames()) != numFeatures || len(DeviceFeatureNames()) != numFeatures {
		t.Fatal("feature name lengths wrong")
	}
}

func TestTrainingPlanCountsMatchPaper(t *testing.T) {
	plan := PaperTrainingPlan()
	if got := plan.HostExperiments(); got != 2880 {
		t.Fatalf("host experiments = %d, want 2880 (Section IV-B)", got)
	}
	if got := plan.DeviceExperiments(); got != 4320 {
		t.Fatalf("device experiments = %d, want 4320", got)
	}
	if got := plan.HostExperiments() + plan.DeviceExperiments(); got != 7200 {
		t.Fatalf("total = %d, want 7200", got)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainingPlanValidation(t *testing.T) {
	plan := PaperTrainingPlan()
	plan.Workloads = nil
	if err := plan.Validate(); err == nil {
		t.Error("no workloads should fail")
	}
	plan = PaperTrainingPlan()
	plan.Fractions = []float64{0}
	if err := plan.Validate(); err == nil {
		t.Error("zero fraction should fail (no work, no time)")
	}
	plan = PaperTrainingPlan()
	plan.HostThreads = nil
	if err := plan.Validate(); err == nil {
		t.Error("empty host grid should fail")
	}
	plan = PaperTrainingPlan()
	plan.DeviceAffinities = nil
	if err := plan.Validate(); err == nil {
		t.Error("empty device grid should fail")
	}
}

func TestGenerateDataShapes(t *testing.T) {
	platform := offload.NewPlatform()
	plan := smallPlan()
	host, err := GenerateHostData(platform, plan)
	if err != nil {
		t.Fatal(err)
	}
	if host.Len() != plan.HostExperiments() {
		t.Fatalf("host rows = %d, want %d", host.Len(), plan.HostExperiments())
	}
	dev, err := GenerateDeviceData(platform, plan)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Len() != plan.DeviceExperiments() {
		t.Fatalf("device rows = %d, want %d", dev.Len(), plan.DeviceExperiments())
	}
	for _, y := range host.Y {
		if y <= 0 {
			t.Fatal("host times must be positive")
		}
	}
}

func TestTrainProducesAccurateModels(t *testing.T) {
	platform := offload.NewPlatform()
	models := testModels(t, platform)
	if models.HostReport.Eval.MeanPercentError > 15 {
		t.Fatalf("host model percent error %.1f%% too high", models.HostReport.Eval.MeanPercentError)
	}
	if models.DeviceReport.Eval.MeanPercentError > 15 {
		t.Fatalf("device model percent error %.1f%% too high", models.DeviceReport.Eval.MeanPercentError)
	}
	// Split is half/half.
	if d := models.HostReport.TrainN - models.HostReport.TestN; d < -1 || d > 1 {
		t.Fatalf("host split %d/%d not halves", models.HostReport.TrainN, models.HostReport.TestN)
	}
	// Prediction sanity against a fresh measurement.
	pred, err := models.PredictHost(48, machine.AffinityScatter, dna.Human.SizeMB/2)
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 || pred > 10 {
		t.Fatalf("host prediction %g implausible", pred)
	}
}

func TestTrainRegressorKinds(t *testing.T) {
	platform := offload.NewPlatform()
	plan := smallPlan()
	var pcts []float64
	for _, kind := range []RegressorKind{BoostedTrees, Linear, Poisson} {
		models, err := Train(platform, plan, TrainOptions{Kind: kind, Boost: smallBoost(), SplitSeed: 3})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if models.Kind != kind {
			t.Fatalf("kind = %v, want %v", models.Kind, kind)
		}
		pcts = append(pcts, models.HostReport.Eval.MeanPercentError)
	}
	// The paper chose BDTR because it was the most accurate.
	if pcts[0] >= pcts[1] || pcts[0] >= pcts[2] {
		t.Fatalf("BDTR (%.2f%%) should beat linear (%.2f%%) and poisson (%.2f%%)", pcts[0], pcts[1], pcts[2])
	}
}

func TestRegressorKindString(t *testing.T) {
	if BoostedTrees.String() != "boosted-trees" || Linear.String() != "linear" || Poisson.String() != "poisson" {
		t.Fatal("regressor kind names wrong")
	}
	if RegressorKind(8).String() != "regressor(8)" {
		t.Fatal("unknown kind name wrong")
	}
}

func TestPredictorMemoizationAndValidation(t *testing.T) {
	platform := offload.NewPlatform()
	models := testModels(t, platform)
	w := offload.GenomeWorkload(dna.Human)
	if _, err := NewPredictor(nil, w, platform.Model()); err == nil {
		t.Error("nil models should fail")
	}
	if _, err := NewPredictor(models, offload.Workload{}, platform.Model()); err == nil {
		t.Error("invalid workload should fail")
	}
	p, err := NewPredictor(models, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Config{HostThreads: 48, HostAffinity: machine.AffinityScatter, DeviceThreads: 240, DeviceAffinity: machine.AffinityBalanced, HostFraction: 50}
	a, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("memoized prediction changed")
	}
	if p.hostMemo.Unique() != 1 || p.devMemo.Unique() != 1 {
		t.Fatalf("memo sizes = %d/%d, want 1/1", p.hostMemo.Unique(), p.devMemo.Unique())
	}
	if _, err := p.Evaluate(space.Config{HostFraction: 200}); err == nil {
		t.Error("bad fraction should fail")
	}
}

// instance builds a ready Instance over the small schema.
func instance(t *testing.T, g dna.Genome) (*Instance, *offload.Platform) {
	t.Helper()
	platform := offload.NewPlatform()
	models := testModels(t, platform)
	w := offload.GenomeWorkload(g)
	pred, err := NewPredictor(models, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{
		Schema:    smallSchema(t),
		Measurer:  NewMeasurer(platform, w),
		Predictor: pred,
	}, platform
}

func TestInstanceValidation(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	if err := inst.Validate(SAML); err != nil {
		t.Fatal(err)
	}
	noPred := &Instance{Schema: inst.Schema, Measurer: inst.Measurer}
	if err := noPred.Validate(SAML); err == nil {
		t.Error("SAML without predictor should fail")
	}
	if err := noPred.Validate(SAM); err != nil {
		t.Error("SAM without predictor should pass")
	}
	if err := (&Instance{}).Validate(EM); err == nil {
		t.Error("missing schema should fail")
	}
	if err := (&Instance{Schema: inst.Schema}).Validate(EM); err == nil {
		t.Error("missing measurer should fail")
	}
}

func TestEMFindsExhaustiveOptimum(t *testing.T) {
	inst, platform := instance(t, dna.Human)
	res, err := Run(EM, inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SearchEvaluations != inst.Schema.Size() {
		t.Fatalf("EM evaluated %d configs, want %d", res.SearchEvaluations, inst.Schema.Size())
	}
	// Independently verify optimality over the whole space.
	w := offload.GenomeWorkload(dna.Human)
	bestE := math.Inf(1)
	err = inst.Schema.Space().ForEach(func(idx []int) error {
		cfg, err := inst.Schema.Config(idx)
		if err != nil {
			return err
		}
		ti, err := platform.Measure(w, cfg)
		if err != nil {
			return err
		}
		if ti.E() < bestE {
			bestE = ti.E()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.MeasuredE()-bestE) > 1e-12 {
		t.Fatalf("EM best %g != exhaustive best %g", res.MeasuredE(), bestE)
	}
}

func TestSAMethodsStayWithinSpaceAndBudget(t *testing.T) {
	inst, _ := instance(t, dna.Cat)
	for _, m := range []Method{SAM, SAML} {
		res, err := Run(m, inst, Options{Iterations: 200, Seed: 11})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.SearchEvaluations > 201 {
			t.Fatalf("%v used %d evaluations for budget 200", m, res.SearchEvaluations)
		}
		if _, err := inst.Schema.Index(res.Config); err != nil {
			t.Fatalf("%v returned out-of-space config %v", m, res.Config)
		}
		if res.MeasuredE() <= 0 {
			t.Fatalf("%v measured E = %g", m, res.MeasuredE())
		}
	}
}

func TestSAMLNearEM(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	em, err := Run(EM, inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	saml, err := Run(SAML, inst, Options{Iterations: 400, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pd := 100 * (saml.MeasuredE() - em.MeasuredE()) / em.MeasuredE()
	if pd < 0 {
		t.Fatalf("SAML (%g) cannot beat the enumerated optimum (%g)", saml.MeasuredE(), em.MeasuredE())
	}
	if pd > 35 {
		t.Fatalf("SAML percent difference %.1f%% too large on the small space", pd)
	}
}

func TestRunDeterministicBySeed(t *testing.T) {
	inst, _ := instance(t, dna.Dog)
	a, err := Run(SAM, inst, Options{Iterations: 150, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(SAM, inst, Options{Iterations: 150, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if a.Config != b.Config || a.MeasuredE() != b.MeasuredE() {
		t.Fatal("same seed must reproduce the run")
	}
}

func TestExperimentsCounting(t *testing.T) {
	inst, _ := instance(t, dna.Mouse)
	inst.Measurer.ResetCount()
	res, err := Run(SAML, inst, Options{Iterations: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// SAML performs zero search measurements; only the final fair
	// comparison touches the measurer.
	if res.Experiments != 1 {
		t.Fatalf("SAML consumed %d experiments, want 1", res.Experiments)
	}
	res, err = Run(SAM, inst, Options{Iterations: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiments != 102 { // initial + 100 candidates + final
		t.Fatalf("SAM consumed %d experiments, want 102", res.Experiments)
	}
}

func TestBaselines(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	host, err := HostOnlyBaseline(inst)
	if err != nil {
		t.Fatal(err)
	}
	if host.Config.HostFraction != 100 || host.Config.HostThreads != 48 {
		t.Fatalf("host baseline config %v", host.Config)
	}
	if host.Measured.Device != 0 {
		t.Fatal("host-only baseline must not use the device")
	}
	dev, err := DeviceOnlyBaseline(inst)
	if err != nil {
		t.Fatal(err)
	}
	if dev.Config.HostFraction != 0 || dev.Config.DeviceThreads != 240 {
		t.Fatalf("device baseline config %v", dev.Config)
	}
	if dev.Measured.Host != 0 {
		t.Fatal("device-only baseline must not use the host")
	}
	// Section IV-D: the tuned heterogeneous configuration beats both.
	em, err := Run(EM, inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if em.MeasuredE() >= host.MeasuredE() || em.MeasuredE() >= dev.MeasuredE() {
		t.Fatalf("EM (%g) should beat host-only (%g) and device-only (%g)",
			em.MeasuredE(), host.MeasuredE(), dev.MeasuredE())
	}
}

func TestRunErrorPropagation(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	if _, err := Run(SAML, &Instance{Schema: inst.Schema, Measurer: inst.Measurer}, Options{}); err == nil {
		t.Error("SAML without predictor must error")
	}
	if _, err := Run(Method(42), inst, Options{}); err == nil {
		t.Error("unknown method must error")
	}
}
