package adaptive

import (
	"reflect"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// measureInstance builds a measurement-only instance over the paper
// space (refine never needs the predictor).
func measureInstance(g dna.Genome) *core.Instance {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(g)
	return &core.Instance{
		Schema:   space.PaperSchema(),
		Measurer: core.NewMeasurer(platform, w),
	}
}

// TestRefineUnderEnergyObjective checks that the objective threads
// through refinement: hill-climbing a balanced seed under the energy
// objective must reduce joules, and the reported E fields are energy
// values, not makespans.
func TestRefineUnderEnergyObjective(t *testing.T) {
	inst := measureInstance(dna.Human)
	res, err := refine(inst, seedConfig(), Options{
		MeasureBudget: 200,
		Objective:     core.EnergyObjective{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredE > res.StartE {
		t.Fatalf("energy refinement worsened the seed: %g -> %g J", res.StartE, res.MeasuredE)
	}
	if res.Improvement() <= 0 {
		t.Fatalf("expected an energy improvement, got %.1f%%", 100*res.Improvement())
	}
	// The seed is a mid-split: its total energy on this platform is far
	// above a makespan-valued number, so the objective units are visible.
	if res.StartE < 10 {
		t.Fatalf("StartE %g looks like a makespan, want joules", res.StartE)
	}
	// The refined configuration should shift work toward the
	// energy-efficient host.
	if res.Config.HostFraction <= res.Start.HostFraction {
		t.Errorf("energy refinement kept host fraction at %g%% (seed %g%%)",
			res.Config.HostFraction, res.Start.HostFraction)
	}
}

// TestRefineObjectiveDeterministicAcrossParallelism extends the
// round-scan determinism contract to the energy objective.
func TestRefineObjectiveDeterministicAcrossParallelism(t *testing.T) {
	var want Result
	for i, p := range []int{1, 4, 8} {
		inst := measureInstance(dna.Human)
		res, err := refine(inst, seedConfig(), Options{
			MeasureBudget: 150,
			Parallelism:   p,
			Objective:     core.WeightedSumObjective{Alpha: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			continue
		}
		if !reflect.DeepEqual(want, res) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, res)
		}
	}
}
