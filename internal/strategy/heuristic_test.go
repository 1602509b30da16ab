package strategy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"hetopt/internal/search"
)

// deceptive hides its optimum at the origin, far from the bowl's center.
type deceptive struct{ *bowl }

func (d deceptive) Energy(state []int) (float64, error) {
	if state[0] == 0 && state[1] == 0 {
		return -1, nil
	}
	return d.bowl.Energy(state)
}

func heuristicStrategies() []Strategy {
	return []Strategy{Genetic{}, Tabu{}, Local{}, Random{}}
}

func TestHeuristicsRespectBudget(t *testing.T) {
	for _, s := range heuristicStrategies() {
		b := newBowl()
		res, err := s.Minimize(b, Options{Budget: 137, Seed: 2})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Evaluations > 137 {
			t.Errorf("%s: spent %d evaluations for budget 137", s.Name(), res.Evaluations)
		}
		if got := int(b.evals.Load()); got != res.Evaluations {
			t.Errorf("%s: reported %d evaluations but the problem saw %d", s.Name(), res.Evaluations, got)
		}
	}
}

func TestHeuristicValidation(t *testing.T) {
	for _, s := range heuristicStrategies() {
		if _, err := s.Minimize(zeroDim{}, Options{}); err == nil {
			t.Errorf("%s: zero-dimensional problem should fail", s.Name())
		}
		if _, err := s.Minimize(&bowl{levels: []int{0}, target: []int{1}}, Options{}); err == nil {
			t.Errorf("%s: zero levels should fail", s.Name())
		}
	}
}

// TestHeuristicsReturnOnSingleLevelSpace: a space whose dimensions all
// have one level offers no moves. Every heuristic must still return;
// Tabu's move sampling must not spin without spending budget.
func TestHeuristicsReturnOnSingleLevelSpace(t *testing.T) {
	for _, s := range heuristicStrategies() {
		done := make(chan error, 1)
		go func() {
			_, err := s.Minimize(&bowl{levels: []int{1, 1, 1}, target: []int{0, 0, 0}}, Options{Budget: 50, Seed: 1, Restarts: 2})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s: %v", s.Name(), err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s did not return on a single-level space", s.Name())
		}
	}
}

func TestTabuEscapesLocalMinimum(t *testing.T) {
	p := deceptive{&bowl{levels: []int{12, 12}, target: []int{7, 3}}}
	res, err := Tabu{}.Minimize(p, Options{Budget: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEnergy != -1 {
		t.Fatalf("tabu best = %g, want -1 (hidden optimum)", res.BestEnergy)
	}
}

// TestGuidedBeatsRandomOnAverage: over 20 seeds, every guided heuristic
// finds better states than uniform sampling under the same budget.
func TestGuidedBeatsRandomOnAverage(t *testing.T) {
	sum := map[string]float64{}
	for seed := int64(0); seed < 20; seed++ {
		for _, s := range heuristicStrategies() {
			res, err := s.Minimize(newBowl(), Options{Budget: 400, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sum[s.Name()] += res.BestEnergy
		}
	}
	for _, name := range []string{"genetic", "tabu", "local"} {
		if sum[name] > sum["random"] {
			t.Errorf("%s (mean %g) should beat random (mean %g)", name, sum[name]/20, sum["random"]/20)
		}
	}
}

// TestRestartsAreChainSeededRuns is the restart runner's contract:
// worker i is exactly a single run seeded search.ChainSeed(seed, i), the
// winner is the lowest energy at the lowest index, and the effort is the
// workers' sum.
func TestRestartsAreChainSeededRuns(t *testing.T) {
	const restarts = 4
	for _, s := range append(heuristicStrategies(), DefaultAnneal()) {
		multi, err := s.Minimize(newBowl(), Options{Budget: 60, Seed: 12, Restarts: restarts})
		if err != nil {
			t.Fatal(err)
		}
		var want Result
		for i := 0; i < restarts; i++ {
			r, err := s.Minimize(newBowl(), Options{Budget: 60, Seed: search.ChainSeed(12, i)})
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 || r.BestEnergy < want.BestEnergy {
				want.Best, want.BestEnergy, want.Worker = r.Best, r.BestEnergy, i
			}
			want.Evaluations += r.Evaluations
		}
		want.Workers = restarts
		if !reflect.DeepEqual(multi, want) {
			t.Errorf("%s: restarts diverged from their standalone runs:\n got  %+v\n want %+v", s.Name(), multi, want)
		}
	}
}

// Property: every randomized strategy returns an in-bounds state whose
// energy is the reported best.
func TestBestIsSoundProperty(t *testing.T) {
	strategies := append(heuristicStrategies(), DefaultAnneal())
	f := func(seed int64, which, budgetRaw uint8) bool {
		s := strategies[int(which)%len(strategies)]
		p := newBowl()
		res, err := s.Minimize(p, Options{Budget: int(budgetRaw)%400 + 50, Seed: seed})
		if err != nil {
			return false
		}
		for i, v := range res.Best {
			if v < 0 || v >= p.Levels(i) {
				return false
			}
		}
		e, _ := p.Energy(res.Best)
		return e == res.BestEnergy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

func TestHeuristicsFindBowlMinimum(t *testing.T) {
	for _, s := range heuristicStrategies() {
		res, err := s.Minimize(newBowl(), Options{Budget: 3000, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// Random sampling may miss the exact optimum; the guided
		// heuristics must hit it on 12^3 states with 3000 evaluations.
		if _, isRandom := s.(Random); isRandom {
			if res.BestEnergy > 9 {
				t.Errorf("random: best = %g suspiciously bad", res.BestEnergy)
			}
			continue
		}
		if res.BestEnergy != 0 {
			t.Errorf("%s: best = %g at %v, want 0", s.Name(), res.BestEnergy, res.Best)
		}
	}
}

func TestHeuristicsDeterministicBySeed(t *testing.T) {
	for _, s := range heuristicStrategies() {
		a, err := s.Minimize(newBowl(), Options{Budget: 500, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Minimize(newBowl(), Options{Budget: 500, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed must reproduce the run:\n%+v\n%+v", s.Name(), a, b)
		}
	}
}

// TestHeuristicsTreatNaNAsInf: NaN energies read as +Inf, through the
// restarts' shared memo and winner selection too.
func TestHeuristicsTreatNaNAsInf(t *testing.T) {
	for _, s := range heuristicStrategies() {
		res, err := s.Minimize(&nanProblem{}, Options{Budget: 50, Seed: 1, Restarts: 3})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !math.IsInf(res.BestEnergy, 1) {
			t.Errorf("%s: best = %g, want +Inf", s.Name(), res.BestEnergy)
		}
	}
}

// TestHeuristicRestartsDeterministicAcrossParallelism: restarts draw
// ChainSeed-derived seeds, so the outcome is bit-identical at every
// parallelism level for every heuristic.
func TestHeuristicRestartsDeterministicAcrossParallelism(t *testing.T) {
	for _, s := range heuristicStrategies() {
		t.Run(s.Name(), func(t *testing.T) {
			var want Result
			for i, p := range []int{1, 4, 8} {
				res, err := s.Minimize(newBowl(), Options{Budget: 250, Seed: 6, Restarts: 5, Parallelism: p})
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

// TestHeuristicRestartZeroMatchesSingleRun: restart 0 keeps the base
// seed, so one restart reproduces the plain run bit-for-bit.
func TestHeuristicRestartZeroMatchesSingleRun(t *testing.T) {
	for _, s := range heuristicStrategies() {
		plain, err := s.Minimize(newBowl(), Options{Budget: 300, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		one, err := s.Minimize(newBowl(), Options{Budget: 300, Seed: 4, Restarts: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, one) {
			t.Errorf("%s: one restart diverged from the plain run:\n%+v\n%+v", s.Name(), plain, one)
		}
		if one.Worker != 0 || one.Workers != 1 {
			t.Errorf("%s: bookkeeping wrong: %+v", s.Name(), one)
		}
	}
}

// TestHeuristicRestartErrorPropagation: an evaluator failure in any
// restart stops the run and comes back unwrapped.
func TestHeuristicRestartErrorPropagation(t *testing.T) {
	for _, s := range heuristicStrategies() {
		_, err := s.Minimize(&failing{bowl: newBowl(), after: 40}, Options{Budget: 100, Seed: 1, Restarts: 3, Parallelism: 2})
		if err == nil || err.Error() != "injected evaluator failure" {
			t.Errorf("%s: err = %v, want the evaluator's own error", s.Name(), err)
		}
	}
}
