package core

import (
	"fmt"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// TrainingPlan describes the experiment grid used to generate training
// data for the performance-prediction models (Section III-B: "In total the
// data of about 7200 experiments were used").
type TrainingPlan struct {
	// Workloads are the inputs to measure. The paper plan lists the four
	// evaluation genomes; scenario plans list a workload family's size
	// presets so the per-side models learn that family's signature.
	Workloads []offload.Workload
	// Fractions are the input percentages measured per side (the paper
	// uses 2.5-100 in 2.5% steps).
	Fractions []float64
	// Host side grid.
	HostThreads    []int
	HostAffinities []machine.Affinity
	// Device side grid.
	DeviceThreads    []int
	DeviceAffinities []machine.Affinity
}

// PaperTrainingPlan reproduces the paper's grid: 4 genomes x 40 fractions
// x (6 host thread counts x 3 affinities + 9 device thread counts x 3
// affinities) = 2880 host + 4320 device = 7200 experiments.
func PaperTrainingPlan() TrainingPlan {
	fractions := make([]float64, 0, 40)
	for f := 2.5; f <= 100; f += 2.5 {
		fractions = append(fractions, f)
	}
	return TrainingPlan{
		Workloads:        GenomeWorkloads(),
		Fractions:        fractions,
		HostThreads:      []int{2, 6, 12, 24, 36, 48},
		HostAffinities:   []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact},
		DeviceThreads:    []int{2, 4, 8, 16, 30, 60, 120, 180, 240},
		DeviceAffinities: []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact},
	}
}

// GenomeWorkloads returns the paper's four evaluation genomes as
// workloads, in the paper's order.
func GenomeWorkloads() []offload.Workload {
	gs := dna.Genomes()
	out := make([]offload.Workload, len(gs))
	for i, g := range gs {
		out[i] = offload.GenomeWorkload(g)
	}
	return out
}

// Validate checks the plan is non-empty on every axis.
func (p TrainingPlan) Validate() error {
	switch {
	case len(p.Workloads) == 0:
		return fmt.Errorf("core: training plan has no workloads")
	case len(p.Fractions) == 0:
		return fmt.Errorf("core: training plan has no fractions")
	case len(p.HostThreads) == 0 || len(p.HostAffinities) == 0:
		return fmt.Errorf("core: training plan has an empty host grid")
	case len(p.DeviceThreads) == 0 || len(p.DeviceAffinities) == 0:
		return fmt.Errorf("core: training plan has an empty device grid")
	}
	for _, f := range p.Fractions {
		if f <= 0 || f > 100 {
			return fmt.Errorf("core: training fraction %g outside (0,100]", f)
		}
	}
	return nil
}

// HostExperiments returns the host-side experiment count.
func (p TrainingPlan) HostExperiments() int {
	return len(p.Workloads) * len(p.Fractions) * len(p.HostThreads) * len(p.HostAffinities)
}

// DeviceExperiments returns the device-side experiment count.
func (p TrainingPlan) DeviceExperiments() int {
	return len(p.Workloads) * len(p.Fractions) * len(p.DeviceThreads) * len(p.DeviceAffinities)
}

// GenerateHostData measures the host grid and assembles the training
// dataset: features (threads, size, affinity one-hot) -> host time.
func GenerateHostData(platform *offload.Platform, plan TrainingPlan) (*ml.Dataset, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	d := &ml.Dataset{FeatureNames: HostFeatureNames()}
	for _, w := range plan.Workloads {
		for _, f := range plan.Fractions {
			sizeMB := w.SizeMB * f / 100
			for _, n := range plan.HostThreads {
				for _, aff := range plan.HostAffinities {
					cfg := space.Config{
						HostThreads: n, HostAffinity: aff,
						// The device side is idle for host-only samples;
						// its values are irrelevant but must be valid.
						DeviceThreads: 2, DeviceAffinity: machine.AffinityBalanced,
						HostFraction: 100,
					}
					t, err := platform.Measure(w.Scaled(sizeMB), cfg)
					if err != nil {
						return nil, fmt.Errorf("core: host sample (%s %g%% %dT %s): %w", w.Name, f, n, aff, err)
					}
					d.Append(hostFeatures(n, aff, sizeMB), t.Host)
				}
			}
		}
	}
	return d, nil
}

// GenerateDeviceData measures the device grid analogously.
func GenerateDeviceData(platform *offload.Platform, plan TrainingPlan) (*ml.Dataset, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	d := &ml.Dataset{FeatureNames: DeviceFeatureNames()}
	for _, w := range plan.Workloads {
		for _, f := range plan.Fractions {
			sizeMB := w.SizeMB * f / 100
			for _, n := range plan.DeviceThreads {
				for _, aff := range plan.DeviceAffinities {
					cfg := space.Config{
						HostThreads: 2, HostAffinity: machine.AffinityScatter,
						DeviceThreads: n, DeviceAffinity: aff,
						HostFraction: 0,
					}
					t, err := platform.Measure(w.Scaled(sizeMB), cfg)
					if err != nil {
						return nil, fmt.Errorf("core: device sample (%s %g%% %dT %s): %w", w.Name, f, n, aff, err)
					}
					d.Append(deviceFeatures(n, aff, sizeMB), t.Device)
				}
			}
		}
	}
	return d, nil
}

// RegressorKind selects the regression algorithm; the paper compares
// BDTR against linear and Poisson regression before choosing BDTR.
type RegressorKind int

const (
	// BoostedTrees is Boosted Decision Tree Regression (the paper's
	// choice).
	BoostedTrees RegressorKind = iota
	// Linear is ordinary least squares.
	Linear
	// Poisson is Poisson regression with a log link.
	Poisson
)

// String implements fmt.Stringer.
func (k RegressorKind) String() string {
	switch k {
	case BoostedTrees:
		return "boosted-trees"
	case Linear:
		return "linear"
	case Poisson:
		return "poisson"
	default:
		return fmt.Sprintf("regressor(%d)", int(k))
	}
}

// TrainOptions configures Train.
type TrainOptions struct {
	// Kind selects the regressor; BoostedTrees by default.
	Kind RegressorKind
	// Boost configures boosted trees (ignored for other kinds). Zero
	// values select the package defaults tuned for the 7200-sample grid.
	Boost ml.BoostOptions
	// SplitSeed drives the train/test shuffle ("half of the experiments
	// for training and the other half for evaluation").
	SplitSeed int64
}

// SideReport holds the fitted artifacts and accuracy of one side's model.
type SideReport struct {
	// Eval is the accuracy on the held-out half (Equations 5 and 6).
	Eval ml.Evaluation
	// Test is the held-out half with raw (unnormalized) features, used by
	// the per-thread-count accuracy tables.
	Test *ml.Dataset
	// Predictions are the model outputs on Test, row-aligned.
	Predictions []float64
	// TrainN and TestN record the split sizes.
	TrainN, TestN int
}

// Models bundles the trained host and device predictors.
type Models struct {
	// Host and Device are the fitted regressors (inputs normalized).
	Host, Device ml.Regressor
	// HostNorm and DeviceNorm are the fitted normalizers.
	HostNorm, DeviceNorm *ml.Normalizer
	// HostReport and DeviceReport hold held-out accuracy.
	HostReport, DeviceReport SideReport
	// Kind records the regressor family.
	Kind RegressorKind
}

// PredictHost predicts the host execution time for a raw sample.
func (m *Models) PredictHost(threads int, aff machine.Affinity, sizeMB float64) (float64, error) {
	x, err := m.HostNorm.Apply(hostFeatures(threads, aff, sizeMB))
	if err != nil {
		return 0, err
	}
	return clampTime(m.Host.Predict(x)), nil
}

// PredictDevice predicts the device execution time for a raw sample.
func (m *Models) PredictDevice(threads int, aff machine.Affinity, sizeMB float64) (float64, error) {
	x, err := m.DeviceNorm.Apply(deviceFeatures(threads, aff, sizeMB))
	if err != nil {
		return 0, err
	}
	return clampTime(m.Device.Predict(x)), nil
}

// clampTime floors predictions at a microsecond: execution times are
// positive, but additive ensembles can undershoot near the boundary.
func clampTime(t float64) float64 {
	if t < 1e-6 {
		return 1e-6
	}
	return t
}

// defaultBoost are the boosted-tree hyperparameters used for the paper
// grid; the ablation bench explores alternatives.
func defaultBoost() ml.BoostOptions {
	return ml.BoostOptions{
		Rounds:       300,
		LearningRate: 0.08,
		Tree:         ml.TreeOptions{MaxDepth: 7, MinLeaf: 5},
		Subsample:    0.9,
		Seed:         1,
	}
}

// Train generates the plan's data on the platform, splits each side in
// half, fits the selected regressor per side (Figure 4's pipeline:
// normalize, train, evaluate) and reports held-out accuracy.
func Train(platform *offload.Platform, plan TrainingPlan, opt TrainOptions) (*Models, error) {
	hostData, err := GenerateHostData(platform, plan)
	if err != nil {
		return nil, err
	}
	devData, err := GenerateDeviceData(platform, plan)
	if err != nil {
		return nil, err
	}
	return TrainOnData(hostData, devData, opt)
}

// TrainOnData fits models from pre-generated datasets (exposed for tests
// and ablations).
func TrainOnData(hostData, devData *ml.Dataset, opt TrainOptions) (*Models, error) {
	models := &Models{Kind: opt.Kind}
	var err error
	models.Host, models.HostNorm, models.HostReport, err = trainSide(hostData, opt)
	if err != nil {
		return nil, fmt.Errorf("core: host model: %w", err)
	}
	models.Device, models.DeviceNorm, models.DeviceReport, err = trainSide(devData, opt)
	if err != nil {
		return nil, fmt.Errorf("core: device model: %w", err)
	}
	return models, nil
}

func trainSide(data *ml.Dataset, opt TrainOptions) (ml.Regressor, *ml.Normalizer, SideReport, error) {
	train, test, err := data.Split(0.5, opt.SplitSeed)
	if err != nil {
		return nil, nil, SideReport{}, err
	}
	norm, err := ml.FitNormalizer(train)
	if err != nil {
		return nil, nil, SideReport{}, err
	}
	trainN, err := norm.ApplyDataset(train)
	if err != nil {
		return nil, nil, SideReport{}, err
	}
	var reg ml.Regressor
	switch opt.Kind {
	case BoostedTrees:
		boostOpt := opt.Boost
		if boostOpt.Rounds == 0 && boostOpt.LearningRate == 0 && boostOpt.Tree.MaxDepth == 0 {
			boostOpt = defaultBoost()
		}
		reg, err = ml.FitBoostedTrees(trainN, boostOpt)
	case Linear:
		reg, err = ml.FitLinear(trainN, 1e-8)
	case Poisson:
		reg, err = ml.FitPoisson(trainN, ml.PoissonOptions{})
	default:
		err = fmt.Errorf("unknown regressor kind %d", opt.Kind)
	}
	if err != nil {
		return nil, nil, SideReport{}, err
	}
	testN, err := norm.ApplyDataset(test)
	if err != nil {
		return nil, nil, SideReport{}, err
	}
	preds := make([]float64, testN.Len())
	for i, row := range testN.X {
		preds[i] = reg.Predict(row)
	}
	eval, err := ml.EvaluatePredictions(testN, preds)
	if err != nil {
		return nil, nil, SideReport{}, err
	}
	report := SideReport{
		Eval:        eval,
		Test:        test,
		Predictions: preds,
		TrainN:      train.Len(),
		TestN:       test.Len(),
	}
	return reg, norm, report, nil
}
