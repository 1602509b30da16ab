package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// bowl is a separable quadratic over a product space with a unique
// minimum at target. Energy is concurrency-safe (atomic counter) so
// every strategy can drive it from parallel workers.
type bowl struct {
	levels []int
	target []int
	evals  atomic.Int64
}

func newBowl() *bowl {
	return &bowl{levels: []int{12, 12, 12}, target: []int{7, 3, 9}}
}

func (b *bowl) Dim() int         { return len(b.levels) }
func (b *bowl) Levels(i int) int { return b.levels[i] }

func (b *bowl) Initial(dst []int, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Intn(b.levels[i])
	}
}

func (b *bowl) Neighbor(dst, src []int, rng *rand.Rand) {
	copy(dst, src)
	i := rng.Intn(len(dst))
	if dst[i] == 0 {
		dst[i] = 1
	} else if dst[i] == b.levels[i]-1 {
		dst[i]--
	} else if rng.Intn(2) == 0 {
		dst[i]--
	} else {
		dst[i]++
	}
}

func (b *bowl) Energy(state []int) (float64, error) {
	b.evals.Add(1)
	e := 0.0
	for i, v := range state {
		d := float64(v - b.target[i])
		e += d * d
	}
	return e, nil
}

// coupled hides Levels: a Problem that is not Spaced.
type coupled struct{ b *bowl }

func (c coupled) Dim() int                                { return c.b.Dim() }
func (c coupled) Initial(dst []int, rng *rand.Rand)       { c.b.Initial(dst, rng) }
func (c coupled) Neighbor(dst, src []int, rng *rand.Rand) { c.b.Neighbor(dst, src, rng) }
func (c coupled) Energy(state []int) (float64, error)     { return c.b.Energy(state) }

// failing errors after a set number of evaluations.
type failing struct {
	*bowl
	after int64
}

func (f *failing) Energy(state []int) (float64, error) {
	if f.bowl.evals.Load() >= f.after {
		return 0, fmt.Errorf("injected evaluator failure")
	}
	return f.bowl.Energy(state)
}

func allStrategies() []Strategy {
	return []Strategy{DefaultAnneal(), Exhaustive{}, Genetic{}, Tabu{}, Local{}, Random{}, DefaultPortfolio()}
}

func TestAllStrategiesFindBowlMinimum(t *testing.T) {
	for _, s := range allStrategies() {
		res, err := s.Minimize(newBowl(), Options{Budget: 3000, Seed: 1, Restarts: 2})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// Random sampling may miss the exact optimum on 12^3 states; every
		// guided strategy must hit it with 2x3000 evaluations.
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

func TestExhaustiveMatchesSequentialScanAtAnyParallelism(t *testing.T) {
	want, err := Exhaustive{}.Minimize(newBowl(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want.BestEnergy != 0 || want.Evaluations != 12*12*12 {
		t.Fatalf("sequential scan wrong: %+v", want)
	}
	for _, p := range []int{2, 3, 7, 16, 10000} {
		got, err := Exhaustive{}.Minimize(newBowl(), Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, got)
		}
	}
}

func TestSpacedRequirement(t *testing.T) {
	c := coupled{b: newBowl()}
	for _, s := range []Strategy{Exhaustive{}, Genetic{}, Tabu{}, Local{}, Random{}} {
		if _, err := s.Minimize(c, Options{Budget: 50}); err == nil {
			t.Errorf("%s must reject a non-product-space problem", s.Name())
		}
	}
	// Initial/Neighbor-driven strategies work on coupled problems.
	res, err := DefaultAnneal().Minimize(c, Options{Budget: 500, Seed: 3, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEnergy != 0 {
		t.Errorf("anneal on coupled problem: best = %g, want 0", res.BestEnergy)
	}
	// A portfolio restricted to such members works too.
	pres, err := Portfolio{Members: []Strategy{DefaultAnneal()}}.Minimize(c, Options{Budget: 500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if pres.BestEnergy != 0 {
		t.Errorf("portfolio on coupled problem: best = %g, want 0", pres.BestEnergy)
	}
}

func TestStrategyErrorPropagation(t *testing.T) {
	for _, s := range allStrategies() {
		f := &failing{bowl: newBowl(), after: 13}
		_, err := s.Minimize(f, Options{Budget: 200, Seed: 1, Restarts: 2, Parallelism: 2})
		if err == nil {
			t.Errorf("%s: injected failure must propagate", s.Name())
		}
	}
}

func TestAnnealSingleWorkerHasNoMemoOverhead(t *testing.T) {
	// One chain must evaluate through the raw problem (budget+1 calls),
	// preserving the pre-strategy-layer effort accounting.
	b := newBowl()
	res, err := DefaultAnneal().Minimize(b, Options{Budget: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 101 {
		t.Fatalf("evaluations = %d, want 101 (1 initial + 100 candidates)", res.Evaluations)
	}
	if got := b.evals.Load(); got != 101 {
		t.Fatalf("problem saw %d evaluations, want 101 (no dedup for a single chain)", got)
	}
	if res.Worker != 0 || res.Workers != 1 {
		t.Fatalf("worker accounting wrong: %+v", res)
	}
}

// TestRestartsCallEnergyPerEvaluation: the restart runner puts no memo
// in front of the problem, so at Restarts: 4 every randomized strategy
// calls Energy exactly Result.Evaluations times, revisits included
// (the tiny space guarantees the workers overlap).
func TestRestartsCallEnergyPerEvaluation(t *testing.T) {
	for _, s := range []Strategy{DefaultAnneal(), Genetic{}, Tabu{}, Local{}, Random{}} {
		b := newBowl()
		res, err := s.Minimize(b, Options{Budget: 400, Seed: 2, Restarts: 4, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if called := int(b.evals.Load()); called != res.Evaluations {
			t.Errorf("%s: problem saw %d evaluations, result reports %d; a hidden memo is left", s.Name(), called, res.Evaluations)
		}
		if res.Workers != 4 {
			t.Errorf("%s: %d workers, want 4", s.Name(), res.Workers)
		}
	}
}

func TestRestartsNeverWorseThanWorkerZero(t *testing.T) {
	for _, s := range []Strategy{DefaultAnneal(), Genetic{}, Tabu{}, Local{}, Random{}} {
		single, err := s.Minimize(newBowl(), Options{Budget: 120, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		multi, err := s.Minimize(newBowl(), Options{Budget: 120, Seed: 11, Restarts: 5})
		if err != nil {
			t.Fatal(err)
		}
		if multi.BestEnergy > single.BestEnergy {
			t.Errorf("%s: 5 restarts (%g) worse than restart 0 alone (%g)", s.Name(), multi.BestEnergy, single.BestEnergy)
		}
	}
}

func TestParse(t *testing.T) {
	for _, name := range Names() {
		s, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if s == nil {
			t.Fatalf("Parse(%q) returned nil strategy", name)
		}
		if s.Name() != name {
			t.Errorf("Parse(%q).Name() = %q", name, s.Name())
		}
	}
	for _, name := range []string{"", "auto", " AUTO "} {
		s, err := Parse(name)
		if err != nil || s != nil {
			t.Errorf("Parse(%q) = (%v, %v), want (nil, nil)", name, s, err)
		}
	}
	if _, err := Parse("quantum"); err == nil {
		t.Error("unknown strategy name must error")
	}
}

func TestNaNEnergyNeverWins(t *testing.T) {
	nan := &nanProblem{}
	for _, s := range allStrategies() {
		res, err := s.Minimize(nan, Options{Budget: 40, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !math.IsInf(res.BestEnergy, 1) {
			t.Errorf("%s: best = %g, want +Inf", s.Name(), res.BestEnergy)
		}
	}
}

type nanProblem struct{}

func (n *nanProblem) Dim() int                          { return 2 }
func (n *nanProblem) Levels(i int) int                  { return 3 }
func (n *nanProblem) Initial(dst []int, rng *rand.Rand) { dst[0], dst[1] = rng.Intn(3), rng.Intn(3) }
func (n *nanProblem) Neighbor(dst, src []int, rng *rand.Rand) {
	copy(dst, src)
	dst[rng.Intn(2)] = rng.Intn(3)
}
func (n *nanProblem) Energy(state []int) (float64, error) { return math.NaN(), nil }
