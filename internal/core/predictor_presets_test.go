package core_test

import (
	"math"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/scenario"
	"hetopt/internal/space"
)

// TestPredictorLevelPathMatchesEvaluate: on every state of each shipped
// platform's schema, at the first preset of every divisible family, a
// fresh predictor's level table prices the state exactly as Evaluate
// prices its configuration: the measurement bit for bit, and the search
// energy under the time, energy, weighted (α 0.25 and 1) and
// time-bounded objectives. The level path runs first, so every entry it
// reads is one it filled itself.
func TestPredictorLevelPathMatchesEvaluate(t *testing.T) {
	for _, spec := range scenario.Platforms() {
		schema, err := spec.Schema()
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Platform()
		for _, fam := range scenario.Families() {
			if fam.IsDAG() {
				continue
			}
			w, err := fam.Workload(fam.Presets[0].Name)
			if err != nil {
				t.Fatal(err)
			}
			models, err := core.Train(p, spec.TrainingPlan(fam), core.TrainOptions{})
			if err != nil {
				t.Fatal(err)
			}
			pred, err := core.NewPredictor(models, w, p.Model())
			if err != nil {
				t.Fatal(err)
			}
			// A bound near the middle state's time leaves states on
			// both sides of it.
			mid, err := schema.Space().Unflatten(schema.Size() / 2)
			if err != nil {
				t.Fatal(err)
			}
			midM, err := core.PredictState(pred, schema, mid)
			if err != nil {
				t.Fatal(err)
			}
			objs := []core.Objective{core.TimeObjective{}, core.EnergyObjective{},
				core.WeightedSumObjective{Alpha: 0.25}, core.WeightedSumObjective{Alpha: 1},
				core.TimeBoundedObjective{TimeBoundSec: midM.E()}}
			var probs []interface{ Energy([]int) (float64, error) }
			for _, obj := range objs {
				probs = append(probs, core.NewSearchProblem(schema, pred, obj, space.StepMove))
			}
			for ord := 0; ord < schema.Size(); ord++ {
				state, err := schema.Space().Unflatten(ord)
				if err != nil {
					t.Fatal(err)
				}
				got, err := core.PredictState(pred, schema, state)
				if err != nil {
					t.Fatalf("%s/%s %v: %v", spec.Name, fam.Name, state, err)
				}
				energies := make([]float64, len(probs))
				for i, prob := range probs {
					if energies[i], err = prob.Energy(state); err != nil {
						t.Fatal(err)
					}
				}
				cfg, err := schema.Config(state)
				if err != nil {
					t.Fatal(err)
				}
				want, err := pred.Evaluate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if measurementBits(got) != measurementBits(want) {
					t.Fatalf("%s/%s %v: level path %+v, Evaluate %+v", spec.Name, fam.Name, cfg, got, want)
				}
				for i, obj := range objs {
					if v := obj.Value(want.E(), want.Joules()); math.Float64bits(energies[i]) != math.Float64bits(v) {
						t.Fatalf("%s/%s %v %s: level path %g, Evaluate %g", spec.Name, fam.Name, cfg, obj.Name(), energies[i], v)
					}
				}
			}
		}
	}
}
