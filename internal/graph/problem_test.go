package graph

import (
	"reflect"
	"testing"

	"hetopt/internal/strategy"
)

// TestTuneBeatsBaselines runs exhaustive placement search on every
// preset: the optimum can never exceed any baseline, and on the paper
// platform each preset must gain from heterogeneity.
func TestTuneBeatsBaselines(t *testing.T) {
	for _, w := range Presets() {
		s := testSim(t, w)
		res, err := Tune(s, nil, strategy.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(res.Placement) != s.Nodes() {
			t.Fatalf("%s: placement length %d", w.Name, len(res.Placement))
		}
		for _, base := range []float64{res.HostOnlySec, res.DeviceOnlySec, res.RoundRobinSec} {
			if res.MakespanSec > base+1e-12 {
				t.Errorf("%s: exhaustive optimum %g exceeds baseline %g", w.Name, res.MakespanSec, base)
			}
		}
		if res.SpeedupVsHost() <= 1 {
			t.Errorf("%s: no speedup over host-only (%g)", w.Name, res.SpeedupVsHost())
		}
	}
}

// TestTuneDeterministicAcrossParallelism pins the core determinism
// contract: the same seed yields the identical placement at any
// parallelism for the search strategies.
func TestTuneDeterministicAcrossParallelism(t *testing.T) {
	strats := []strategy.Strategy{
		strategy.DefaultAnneal(),
		strategy.Genetic{},
		strategy.Exhaustive{},
		// The proved branch-and-bound run must be bit-identical at any
		// parallelism too — certificate counts and pool included (the
		// DeepEqual below sees through Result.Cert).
		strategy.Exact{Prove: true, PoolSize: 3},
	}
	for _, w := range Presets() {
		s := testSim(t, w)
		for _, strat := range strats {
			var ref Result
			for i, par := range []int{1, 4, 8} {
				res, err := Tune(s, strat, strategy.Options{Budget: 400, Seed: 11, Restarts: 4, Parallelism: par})
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, strat.Name(), err)
				}
				if i == 0 {
					ref = res
					continue
				}
				if !reflect.DeepEqual(res, ref) {
					t.Errorf("%s/%s: parallelism %d diverged: %+v vs %+v", w.Name, strat.Name(), par, res, ref)
				}
			}
		}
	}
}

// TestTunePortfolioDeterministicAcrossParallelism races the default
// portfolio on every preset, its members sharing one memo, and pins the
// result at every parallelism. Every preset is within the exact gate,
// so the race also proves the exhaustive optimum.
func TestTunePortfolioDeterministicAcrossParallelism(t *testing.T) {
	for _, w := range Presets() {
		s := testSim(t, w)
		opt, err := Tune(s, nil, strategy.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var ref Result
		for i, par := range []int{1, 8} {
			res, err := Tune(s, strategy.DefaultPortfolio(), strategy.Options{Budget: 200, Seed: 3, Restarts: 2, Parallelism: par})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if i == 0 {
				ref = res
				if c, ok := res.Certificate(); !ok || !c.Optimal || res.MakespanSec != opt.MakespanSec {
					t.Errorf("%s: portfolio %g (certified %v), exhaustive optimum %g", w.Name, res.MakespanSec, ok && c.Optimal, opt.MakespanSec)
				}
				continue
			}
			if !reflect.DeepEqual(res, ref) {
				t.Errorf("%s: parallelism %d diverged: %+v vs %+v", w.Name, par, res, ref)
			}
		}
	}
}
