package experiments

import (
	"fmt"
	"strings"

	"hetopt/internal/core"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
	"hetopt/internal/tables"
)

// Ablations probe the design choices DESIGN.md calls out: the SA
// temperature scale, the SA neighborhood, the regressor family and the
// boosting capacity. Each returns a rendered table so cmd/hetbench and
// the benches can report them.

// AblationCoolingRate compares SAML outcomes across initial temperatures
// (the cooling rate follows from the budget, so temperature sets the
// explore/exploit balance).
func (s *Suite) AblationCoolingRate(w offload.Workload, iterations int) (string, error) {
	inst, err := s.instance(w)
	if err != nil {
		return "", err
	}
	em, err := core.Run(core.EM, inst, s.coreOpts(0, 0))
	if err != nil {
		return "", err
	}
	tb := tables.New(fmt.Sprintf("Ablation: SA initial temperature (genome %s, %d iterations, %d seeds)",
		w.Name, iterations, s.repeats()),
		"initial temp", "mean SAML E [s]", "pct diff vs EM")
	for _, t0 := range []float64{0.05, 0.5, strategy.DefaultInitialTemp, 50, 10000} {
		sum := 0.0
		for r := 0; r < s.repeats(); r++ {
			opt := s.coreOpts(iterations, s.Seed+int64(r))
			// This ablation probes the SA temperature, so it replaces a
			// suite-injected strategy with the annealer at t0.
			opt.Strategy = strategy.Anneal{InitialTemp: t0}
			res, err := core.Run(core.SAML, inst, opt)
			if err != nil {
				return "", err
			}
			sum += res.MeasuredE()
		}
		mean := sum / float64(s.repeats())
		tb.AddRow(tables.F(t0, 2), tables.F(mean, 4), tables.Percent(100*(mean-em.MeasuredE())/em.MeasuredE()))
	}
	return tb.String(), nil
}

// AblationNeighborhood compares the step-move neighborhood against
// uniform resampling.
func (s *Suite) AblationNeighborhood(w offload.Workload, iterations int) (string, error) {
	inst, err := s.instance(w)
	if err != nil {
		return "", err
	}
	em, err := core.Run(core.EM, inst, s.coreOpts(0, 0))
	if err != nil {
		return "", err
	}
	tb := tables.New(fmt.Sprintf("Ablation: SA neighborhood (genome %s, %d iterations, %d seeds)",
		w.Name, iterations, s.repeats()),
		"neighborhood", "mean SAML E [s]", "pct diff vs EM")
	for _, mode := range []struct {
		name string
		mode space.NeighborMode
	}{{"step +-1", space.StepMove}, {"resample", space.ResampleMove}} {
		sum := 0.0
		for r := 0; r < s.repeats(); r++ {
			opt := s.coreOpts(iterations, s.Seed+int64(r))
			// Probe the SA preset's neighborhood: the heuristic
			// strategies never call Neighbor, so an injected suite
			// strategy would make both rows identical.
			opt.Strategy = nil
			opt.NeighborMode = mode.mode
			res, err := core.Run(core.SAML, inst, opt)
			if err != nil {
				return "", err
			}
			sum += res.MeasuredE()
		}
		mean := sum / float64(s.repeats())
		tb.AddRow(mode.name, tables.F(mean, 4), tables.Percent(100*(mean-em.MeasuredE())/em.MeasuredE()))
	}
	return tb.String(), nil
}

// AblationRegressors compares BDTR with the linear and Poisson
// alternatives the paper considered (Section III-B), both on prediction
// accuracy and on the quality of the SAML result they induce.
func (s *Suite) AblationRegressors(w offload.Workload) (string, error) {
	hostData, err := core.GenerateHostData(s.Platform, s.Plan)
	if err != nil {
		return "", err
	}
	devData, err := core.GenerateDeviceData(s.Platform, s.Plan)
	if err != nil {
		return "", err
	}
	meas := core.NewMeasurer(s.Platform, w)
	em, err := core.Run(core.EM, &core.Instance{Schema: s.Schema, Measurer: meas}, s.coreOpts(0, 0))
	if err != nil {
		return "", err
	}
	tb := tables.New(fmt.Sprintf("Ablation: regressor family (%s, 1000 iterations)", w.Name),
		"regressor", "host pct err", "device pct err", "SAML pct diff vs EM")
	for _, kind := range []core.RegressorKind{core.BoostedTrees, core.Linear, core.Poisson} {
		models, err := core.TrainOnData(hostData, devData, core.TrainOptions{Kind: kind, SplitSeed: trainSplitSeed})
		if err != nil {
			return "", err
		}
		pred, err := core.NewPredictor(models, w, s.Platform.Model())
		if err != nil {
			return "", err
		}
		inst := &core.Instance{Schema: s.Schema, Measurer: meas, Predictor: pred}
		sum := 0.0
		for r := 0; r < s.repeats(); r++ {
			res, err := core.Run(core.SAML, inst, s.coreOpts(1000, s.Seed+int64(r)))
			if err != nil {
				return "", err
			}
			sum += res.MeasuredE()
		}
		mean := sum / float64(s.repeats())
		tb.AddRow(kind.String(),
			tables.Percent(models.HostReport.Eval.MeanPercentError),
			tables.Percent(models.DeviceReport.Eval.MeanPercentError),
			tables.Percent(100*(mean-em.MeasuredE())/em.MeasuredE()))
	}
	return tb.String(), nil
}

// AblationBoosting explores boosted-tree capacity: rounds and depth vs
// held-out accuracy.
func (s *Suite) AblationBoosting() (string, error) {
	hostData, err := core.GenerateHostData(s.Platform, s.Plan)
	if err != nil {
		return "", err
	}
	devData, err := core.GenerateDeviceData(s.Platform, s.Plan)
	if err != nil {
		return "", err
	}
	tb := tables.New("Ablation: boosting capacity", "rounds", "depth", "lr", "host pct err", "device pct err")
	for _, cfg := range []ml.BoostOptions{
		{Rounds: 25, LearningRate: 0.3, Tree: ml.TreeOptions{MaxDepth: 3, MinLeaf: 5}, Subsample: 0.9, Seed: 1},
		{Rounds: 100, LearningRate: 0.1, Tree: ml.TreeOptions{MaxDepth: 5, MinLeaf: 5}, Subsample: 0.9, Seed: 1},
		{Rounds: 300, LearningRate: 0.08, Tree: ml.TreeOptions{MaxDepth: 7, MinLeaf: 5}, Subsample: 0.9, Seed: 1},
	} {
		models, err := core.TrainOnData(hostData, devData, core.TrainOptions{Boost: cfg, SplitSeed: trainSplitSeed})
		if err != nil {
			return "", err
		}
		tb.AddRow(fmt.Sprint(cfg.Rounds), fmt.Sprint(cfg.Tree.MaxDepth), tables.F(cfg.LearningRate, 2),
			tables.Percent(models.HostReport.Eval.MeanPercentError),
			tables.Percent(models.DeviceReport.Eval.MeanPercentError))
	}
	return tb.String(), nil
}

// RenderAblations runs every ablation and concatenates the reports.
func (s *Suite) RenderAblations() (string, error) {
	var sb strings.Builder
	cool, err := s.AblationCoolingRate(s.reference(), 1000)
	if err != nil {
		return "", err
	}
	sb.WriteString(cool)
	sb.WriteByte('\n')
	nb, err := s.AblationNeighborhood(s.reference(), 1000)
	if err != nil {
		return "", err
	}
	sb.WriteString(nb)
	sb.WriteByte('\n')
	reg, err := s.AblationRegressors(s.reference())
	if err != nil {
		return "", err
	}
	sb.WriteString(reg)
	sb.WriteByte('\n')
	boost, err := s.AblationBoosting()
	if err != nil {
		return "", err
	}
	sb.WriteString(boost)
	return sb.String(), nil
}
