package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

func TestObjectiveValues(t *testing.T) {
	const timeSec, energyJ = 2.0, 300.0
	if got := (TimeObjective{}).Value(timeSec, energyJ); got != timeSec {
		t.Errorf("time objective = %g, want %g", got, timeSec)
	}
	if got := (EnergyObjective{}).Value(timeSec, energyJ); got != energyJ {
		t.Errorf("energy objective = %g, want %g", got, energyJ)
	}
	w := WeightedSumObjective{Alpha: 0.25}
	if got, want := w.Value(timeSec, energyJ), 0.25*2+0.75*energyJ/DefaultPowerScaleW; math.Abs(got-want) > 1e-12 {
		t.Errorf("weighted objective = %g, want %g", got, want)
	}
	wd := WeightedSumObjective{Alpha: 0}
	if got, want := wd.Value(timeSec, energyJ), energyJ/DefaultPowerScaleW; math.Abs(got-want) > 1e-12 {
		t.Errorf("energy-only weighted objective = %g, want %g", got, want)
	}
	b := TimeBoundedObjective{TimeBoundSec: 1.5}
	if got, want := b.Value(1.4, energyJ), energyJ; got != want {
		t.Errorf("feasible bounded objective = %g, want %g", got, want)
	}
	if got := b.Value(2.0, energyJ); got <= energyJ {
		t.Errorf("infeasible bounded objective %g must exceed the raw energy %g", got, energyJ)
	}
	// The penalty is linear in the violation, pulling annealing back.
	if b.Value(2.0, energyJ) >= b.Value(3.0, energyJ) {
		t.Error("a larger violation must score worse")
	}
}

func TestParseObjective(t *testing.T) {
	for name, want := range map[string]Objective{
		"time":     TimeObjective{},
		"Energy":   EnergyObjective{},
		"weighted": WeightedSumObjective{Alpha: 0.3},
		"":         TimeObjective{},
	} {
		got, err := ParseObjective(name, 0.3)
		if err != nil {
			t.Fatalf("ParseObjective(%q): %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ParseObjective(%q) = %#v, want %#v", name, got, want)
		}
	}
	if _, err := ParseObjective("carbon", 0.5); err == nil {
		t.Error("unknown objective should fail")
	}
	if _, err := ParseObjective("weighted", 1.5); err == nil {
		t.Error("alpha outside [0,1] should fail")
	}
}

// TestEnergyOptimumDiffersFromTimeOptimum is the acceptance check of the
// bi-objective extension on the full paper platform: the enumerated
// energy-optimal distribution must differ from the time-optimal one,
// consume fewer joules, and (on this platform) trade makespan for it.
func TestEnergyOptimumDiffersFromTimeOptimum(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	inst := &Instance{Schema: space.PaperSchema(), Measurer: NewMeasurer(platform, w)}

	timeOpt := Options{Parallelism: 8}
	timeRes, err := Run(EM, inst, timeOpt)
	if err != nil {
		t.Fatal(err)
	}
	energyOpt := Options{Parallelism: 8, Objective: EnergyObjective{}}
	energyRes, err := Run(EM, inst, energyOpt)
	if err != nil {
		t.Fatal(err)
	}
	if timeRes.Config == energyRes.Config {
		t.Fatalf("energy optimum %v must differ from time optimum", energyRes.Config)
	}
	if energyRes.MeasuredJ() >= timeRes.MeasuredJ() {
		t.Fatalf("energy optimum consumes %g J, not less than time optimum's %g J",
			energyRes.MeasuredJ(), timeRes.MeasuredJ())
	}
	if energyRes.MeasuredE() <= timeRes.MeasuredE() {
		t.Fatalf("energy optimum (%g s) should trade makespan vs time optimum (%g s)",
			energyRes.MeasuredE(), timeRes.MeasuredE())
	}
	// On this platform the energy optimum keeps all work on the host
	// (the engaged accelerator would burn static power).
	if energyRes.Config.HostFraction != 100 {
		t.Errorf("energy optimum maps %g%% to the host, want 100%%", energyRes.Config.HostFraction)
	}

	weightedOpt := Options{Parallelism: 8, Objective: WeightedSumObjective{Alpha: 0.5}}
	weightedRes, err := Run(EM, inst, weightedOpt)
	if err != nil {
		t.Fatal(err)
	}
	if weightedRes.Config == timeRes.Config {
		t.Errorf("weighted(0.5) optimum %v should differ from the time optimum on this platform", weightedRes.Config)
	}
	if !strings.Contains(weightedRes.Objective, "alpha=0.5") {
		t.Errorf("result objective %q should record alpha", weightedRes.Objective)
	}
}

// TestRunWithTimeSlack checks the constrained mode: the energy-minimal
// configuration within the slack must respect the makespan bound and
// consume no more energy than the time optimum.
func TestRunWithTimeSlack(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	timeRes, ecoRes, err := RunWithTimeSlack(EM, inst, Options{Parallelism: 4}, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	bound := 1.25 * timeRes.MeasuredE()
	if ecoRes.MeasuredE() > bound {
		t.Fatalf("bounded result %g s violates the bound %g s", ecoRes.MeasuredE(), bound)
	}
	if ecoRes.MeasuredJ() > timeRes.MeasuredJ() {
		t.Fatalf("bounded result consumes %g J, more than the time optimum's %g J",
			ecoRes.MeasuredJ(), timeRes.MeasuredJ())
	}
	if !strings.HasPrefix(ecoRes.Objective, "bounded") {
		t.Errorf("bounded result records objective %q", ecoRes.Objective)
	}
	if _, _, err := RunWithTimeSlack(EM, inst, Options{}, -0.1); err == nil {
		t.Error("negative slack should fail")
	}
}

// TestRunDeterministicAcrossParallelismObjectives extends the engine's
// determinism contract to the new objective paths: for a fixed seed the
// Result is bit-identical at every parallelism level under the energy
// and weighted objectives, for both measurement- and prediction-driven
// methods. Run with -race, this also exercises the shared evaluation
// cache composing times and energy from one evaluation across chains.
func TestRunDeterministicAcrossParallelismObjectives(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	cases := []struct {
		name string
		m    Method
		opt  Options
	}{
		{"EM-energy", EM, Options{Objective: EnergyObjective{}}},
		{"SAM-energy", SAM, Options{Iterations: 200, Seed: 5, Restarts: 4, Objective: EnergyObjective{}}},
		{"SAML-energy", SAML, Options{Iterations: 200, Seed: 5, Restarts: 4, Objective: EnergyObjective{}}},
		{"EML-weighted", EML, Options{Objective: WeightedSumObjective{Alpha: 0.5}}},
		{"SAM-weighted", SAM, Options{Iterations: 200, Seed: 5, Restarts: 4, Objective: WeightedSumObjective{Alpha: 0.5}}},
		{"SAML-weighted", SAML, Options{Iterations: 200, Seed: 5, Restarts: 4, Objective: WeightedSumObjective{Alpha: 0.5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want Result
			for i, p := range []int{1, 4, 8} {
				opt := tc.opt
				opt.Parallelism = p
				res, err := Run(tc.m, inst, opt)
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
		})
	}
}
