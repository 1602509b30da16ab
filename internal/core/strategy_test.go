package core

import (
	"reflect"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/strategy"
)

// TestRunInjectedStrategyDeterministicAcrossParallelism extends the
// engine's determinism contract to injected strategies: for a fixed
// seed the Result is bit-identical at p in {1, 4, 8} for the genetic,
// tabu and local-search strategies and for the racing portfolio, under
// the time and energy objectives.
func TestRunInjectedStrategyDeterministicAcrossParallelism(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	strategies := []struct {
		name string
		s    strategy.Strategy
	}{
		{"genetic", strategy.Genetic{}},
		{"tabu", strategy.Tabu{}},
		{"local", strategy.Local{}},
		{"portfolio", strategy.DefaultPortfolio()},
	}
	objectives := []struct {
		name string
		obj  Objective
	}{
		{"time", nil},
		{"energy", EnergyObjective{}},
	}
	for _, st := range strategies {
		for _, ob := range objectives {
			t.Run(st.name+"/"+ob.name, func(t *testing.T) {
				var want Result
				for i, p := range []int{1, 4, 8} {
					res, err := Run(SAML, inst, Options{
						Iterations:  120,
						Seed:        5,
						Restarts:    3,
						Parallelism: p,
						Objective:   ob.obj,
						Strategy:    st.s,
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
			})
		}
	}
}

// TestInjectedPresetsMatchMethodDefaults: injecting the preset strategy
// explicitly reproduces the method's default run bit-for-bit, so
// "-strategy anneal" equals plain SAM/SAML and "-strategy exhaustive"
// equals plain EM/EML.
func TestInjectedPresetsMatchMethodDefaults(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	annealPreset := strategy.DefaultAnneal()
	cases := []struct {
		name string
		m    Method
		s    strategy.Strategy
		opt  Options
	}{
		{"SAM-anneal", SAM, annealPreset, Options{Iterations: 200, Seed: 5, Restarts: 3}},
		{"SAML-anneal", SAML, annealPreset, Options{Iterations: 200, Seed: 5}},
		{"EM-exhaustive", EM, strategy.Exhaustive{}, Options{Parallelism: 4}},
		{"EML-exhaustive", EML, strategy.Exhaustive{}, Options{Parallelism: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			def, err := Run(tc.m, inst, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			opt := tc.opt
			opt.Strategy = tc.s
			injected, err := Run(tc.m, inst, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(def, injected) {
				t.Fatalf("injected preset diverged from method default:\nwant %+v\ngot  %+v", def, injected)
			}
		})
	}
}

// TestInjectedStrategySwapsExplorer: a method keeps its evaluator but
// explores with the injected strategy — EM with the anneal strategy
// becomes SAM (same evaluator, same explorer, same result).
func TestInjectedStrategySwapsExplorer(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	annealPreset := strategy.DefaultAnneal()
	opt := Options{Iterations: 150, Seed: 3}
	sam, err := Run(SAM, inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Strategy = annealPreset
	emAnneal, err := Run(EM, inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if emAnneal.Config != sam.Config || emAnneal.SearchE != sam.SearchE ||
		emAnneal.SearchEvaluations != sam.SearchEvaluations {
		t.Fatalf("EM with anneal strategy should explore exactly like SAM:\nSAM %+v\ngot %+v", sam, emAnneal)
	}
}

// TestPortfolioRunNeverWorseThanPresetSAM: the default portfolio
// contains the annealing preset as its first member with the same seed,
// so its search energy can never exceed plain single-strategy SA.
func TestPortfolioRunNeverWorseThanPresetSAM(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	opt := Options{Iterations: 150, Seed: 7}
	sam, err := Run(SAM, inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Strategy = strategy.DefaultPortfolio()
	pf, err := Run(SAM, inst, opt)
	if err != nil {
		t.Fatal(err)
	}
	if pf.SearchE > sam.SearchE {
		t.Fatalf("portfolio (%g) worse than its annealing member alone (%g)", pf.SearchE, sam.SearchE)
	}
}
