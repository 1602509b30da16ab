package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"sync/atomic"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/graph"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// strategyFingerprint folds the parts of a strategy Result that a search
// decides — the winning state, its energy bits, the logical effort and
// the winning worker — into one comparable string.
func strategyFingerprint(r strategy.Result) string {
	return fmt.Sprintf("%v|%016x|%d|%d", r.Best, math.Float64bits(r.BestEnergy), r.Evaluations, r.Worker)
}

// TestSearchStrategiesGolden pins the annealer and the four alternative
// metaheuristics bit-for-bit on two real problems: the paper's tuning
// space evaluated by the simulated platform (a batch-capable problem)
// and a DAG placement (a bounded, batch-capable product space). Each
// cell runs Restarts in {1, 4}; the fingerprint must be the same at
// Parallelism 1 and 4. The values were captured before the search layer
// was rewritten onto strategy.Problem, so any drift in RNG consumption
// order, tie-breaking or effort accounting shows here.
func TestSearchStrategiesGolden(t *testing.T) {
	sc, err := Lookup("gpu-like", "dag:resnet-ish")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sc.DAGSim()
	if err != nil {
		t.Fatal(err)
	}
	problems := []struct {
		name   string
		p      strategy.Problem
		budget int
	}{
		{"paper", core.NewSearchProblem(space.PaperSchema(),
			core.NewMeasurer(offload.NewPlatform(), offload.GenomeWorkload(dna.Human)), nil, space.StepMove), 250},
		// A small budget keeps the placement runs short of the optimum,
		// so they still tell the algorithms apart.
		{"dag", graph.NewPlacementProblem(sim), 60},
	}
	strategies := []strategy.Strategy{strategy.DefaultAnneal(), strategy.Genetic{}, strategy.Tabu{}, strategy.Local{}, strategy.Random{}}
	golden := map[string]string{
		"paper/anneal/r1":  "[5 0 2 0 40]|3fe273554d94a8df|251|0",
		"paper/anneal/r4":  "[5 2 8 0 24]|3fd77e3deaee3406|1004|2",
		"paper/genetic/r1": "[5 1 8 0 25]|3fd9ef046b339b46|250|0",
		"paper/genetic/r4": "[5 2 8 0 24]|3fd77e3deaee3406|1000|2",
		"paper/tabu/r1":    "[5 2 8 0 24]|3fd77e3deaee3406|250|0",
		"paper/tabu/r4":    "[5 2 8 0 24]|3fd77e3deaee3406|1000|0",
		"paper/local/r1":   "[5 0 4 0 36]|3fe12282578695c4|250|0",
		"paper/local/r4":   "[5 1 6 1 25]|3fdbbc5961572b7b|1000|1",
		"paper/random/r1":  "[4 1 7 0 24]|3fdc7d1018b8cc83|250|0",
		"paper/random/r4":  "[5 1 6 1 26]|3fdb75128155af90|1000|1",
		"dag/anneal/r1":    "[1 1 1 1 1 1 1 1 1 1 1]|3fc8020893d74153|61|0",
		"dag/anneal/r4":    "[1 1 1 1 1 1 1 1 1 1 1]|3fc8020893d74153|244|0",
		"dag/genetic/r1":   "[0 1 1 1 1 1 1 1 1 1 0]|3fcdcc4bf4914df0|60|0",
		"dag/genetic/r4":   "[0 1 1 1 1 1 1 1 1 1 0]|3fcdcc4bf4914df0|240|0",
		"dag/tabu/r1":      "[0 0 1 1 0 0 0 1 1 0 0]|3fdc31c40d415e4c|60|0",
		"dag/tabu/r4":      "[1 1 1 1 0 0 1 1 1 0 0]|3fd484bfe5afd96e|240|1",
		"dag/local/r1":     "[0 1 1 1 1 1 1 1 1 0 0]|3fcef759082a87bb|60|0",
		"dag/local/r4":     "[1 1 1 1 1 1 1 1 1 0 1]|3fc9a53be22611fc|240|1",
		"dag/random/r1":    "[1 1 1 1 1 1 1 1 1 0 1]|3fc9a53be22611fc|60|0",
		"dag/random/r4":    "[1 1 1 1 1 1 1 1 1 0 1]|3fc9a53be22611fc|240|0",
	}
	for _, pr := range problems {
		for _, s := range strategies {
			for _, restarts := range []int{1, 4} {
				key := fmt.Sprintf("%s/%s/r%d", pr.name, s.Name(), restarts)
				var ref string
				for _, par := range []int{1, 4} {
					res, err := s.Minimize(pr.p, strategy.Options{Budget: pr.budget, Seed: 7, Restarts: restarts, Parallelism: par})
					if err != nil {
						t.Fatalf("%s p%d: %v", key, par, err)
					}
					got := strategyFingerprint(res)
					if par == 1 {
						ref = got
						continue
					}
					if got != ref {
						t.Errorf("%s: parallelism %d diverged:\n got  %s\n want %s", key, par, got, ref)
					}
				}
				if want, ok := golden[key]; !ok {
					t.Errorf("%s: no golden; got %q", key, ref)
				} else if ref != want {
					t.Errorf("%s diverged from the golden:\n got  %s\n want %s", key, ref, want)
				}
			}
		}
	}
}

// evalDigest wraps a problem and folds every state it evaluates, with
// its energy bits, into an order-independent sum, so concurrent
// restarts leave the same digest as sequential ones.
type evalDigest struct {
	strategy.Spaced
	sum atomic.Uint64
}

func (d *evalDigest) Energy(state []int) (float64, error) {
	e, err := d.Spaced.Energy(state)
	h := fnv.New64a()
	fmt.Fprintf(h, "%v|%016x", state, math.Float64bits(e))
	d.sum.Add(h.Sum64())
	return e, err
}

// TestGeneticLongRunGolden pins Genetic over many generations: budget
// 2,000 is about 80 generations of 24, where the short-budget cells of
// TestSearchStrategiesGolden see only a few. Besides the fingerprint,
// each cell pins a digest of every state evaluated, so a population
// buffer or gene slice reused while still read would show even when the
// run ends at the same optimum. Each cell must agree at Parallelism 1
// and 4.
func TestGeneticLongRunGolden(t *testing.T) {
	sc, err := Lookup("gpu-like", "dag:resnet-ish")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sc.DAGSim()
	if err != nil {
		t.Fatal(err)
	}
	problems := []struct {
		name string
		p    strategy.Spaced
	}{
		{"paper", core.NewSearchProblem(space.PaperSchema(),
			core.NewMeasurer(offload.NewPlatform(), offload.GenomeWorkload(dna.Human)), nil, space.StepMove)},
		{"dag", graph.NewPlacementProblem(sim)},
	}
	golden := map[string]string{
		"paper/r1": "[5 2 8 0 24]|3fd77e3deaee3406|2000|0|d7d14d50ec571361",
		"paper/r4": "[5 2 8 0 24]|3fd77e3deaee3406|8000|0|ff4f7848d302af48",
		"dag/r1":   "[1 1 1 1 1 1 1 1 1 1 1]|3fc8020893d74153|2000|0|d148cbdd04cb3a07",
		"dag/r4":   "[1 1 1 1 1 1 1 1 1 1 1]|3fc8020893d74153|8000|0|00585aaa50a150e1",
	}
	for _, pr := range problems {
		for _, restarts := range []int{1, 4} {
			key := fmt.Sprintf("%s/r%d", pr.name, restarts)
			var ref string
			for _, par := range []int{1, 4} {
				d := &evalDigest{Spaced: pr.p}
				res, err := strategy.Genetic{}.Minimize(d, strategy.Options{Budget: 2000, Seed: 7, Restarts: restarts, Parallelism: par})
				if err != nil {
					t.Fatalf("%s p%d: %v", key, par, err)
				}
				got := fmt.Sprintf("%s|%016x", strategyFingerprint(res), d.sum.Load())
				if par == 1 {
					ref = got
					continue
				}
				if got != ref {
					t.Errorf("%s: parallelism %d diverged:\n got  %s\n want %s", key, par, got, ref)
				}
			}
			if want, ok := golden[key]; !ok {
				t.Errorf("%s: no golden; got %q", key, ref)
			} else if ref != want {
				t.Errorf("%s diverged from the golden:\n got  %s\n want %s", key, ref, want)
			}
		}
	}
}
