package experiments

import (
	"fmt"

	"hetopt/internal/core"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
	"hetopt/internal/trace"
)

// RenderSATrace runs one instrumented SAML search and renders its
// convergence trajectory with acceptance statistics — the observability
// view behind the Figure 9 discussion ("sometimes it accepts a worse
// system configuration ... to avoid ending at a local optima").
func (s *Suite) RenderSATrace(w offload.Workload, iterations int) (string, error) {
	inst, err := s.instance(w)
	if err != nil {
		return "", err
	}
	rec := &trace.Recorder{}
	p := core.NewSearchProblem(inst.Schema, inst.Predictor, nil, space.StepMove)
	res, err := strategy.DefaultAnneal().Minimize(p, strategy.Options{Budget: iterations, Seed: s.Seed, OnStep: rec.Hook()})
	if err != nil {
		return "", err
	}
	cfg, err := inst.Schema.Config(res.Best)
	if err != nil {
		return "", err
	}
	title := fmt.Sprintf("Extension: instrumented SAML trace (genome %s, %d iterations, best %v at predicted E %.4f s)",
		w.Name, iterations, cfg, res.BestEnergy)
	return rec.RenderConvergence(title), nil
}
