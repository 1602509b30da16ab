package strategy

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"hetopt/internal/search"
)

// rugged adds a deceptive ripple to the bowl: many local minima, so an
// annealer must go uphill to make progress.
type rugged struct{ *bowl }

func (r rugged) Energy(state []int) (float64, error) {
	e, err := r.bowl.Energy(state)
	return e + 5*math.Abs(math.Sin(float64(state[0])*2.1)), err
}

// halfNaN evaluates odd first coordinates to NaN.
type halfNaN struct{ *bowl }

func (h halfNaN) Energy(state []int) (float64, error) {
	if state[0]%2 == 1 {
		return math.NaN(), nil
	}
	return h.bowl.Energy(state)
}

// zeroDim has no coordinates at all.
type zeroDim struct{}

func (zeroDim) Dim() int                                { return 0 }
func (zeroDim) Levels(int) int                          { return 1 }
func (zeroDim) Initial(dst []int, rng *rand.Rand)       {}
func (zeroDim) Neighbor(dst, src []int, rng *rand.Rand) {}
func (zeroDim) Energy(state []int) (float64, error)     { return 0, nil }

func TestCoolingRateFor(t *testing.T) {
	rate, err := CoolingRateFor(1000, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	// After exactly 1000 steps T should be ~1.
	temp := 10000.0
	for i := 0; i < 1000; i++ {
		temp *= 1 - rate
	}
	if temp < 0.99 || temp > 1.01 {
		t.Fatalf("temperature after 1000 steps = %g, want ~1", temp)
	}
}

func TestCoolingRateForErrors(t *testing.T) {
	if _, err := CoolingRateFor(0, 100, 1); err == nil {
		t.Error("zero iterations should fail")
	}
	if _, err := CoolingRateFor(10, 0, 1); err == nil {
		t.Error("zero initial temp should fail")
	}
	if _, err := CoolingRateFor(10, 100, 0); err == nil {
		t.Error("zero stop temp should fail")
	}
	if _, err := CoolingRateFor(10, 1, 100); err == nil {
		t.Error("stop >= initial should fail")
	}
}

// annealSteps runs a and records every OnStep call.
func annealSteps(t *testing.T, a Anneal, p Problem, opt Options) ([]Step, Result) {
	t.Helper()
	var steps []Step
	opt.OnStep = func(s Step) { steps = append(steps, s) }
	res, err := a.Minimize(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return steps, res
}

// TestAnnealScheduleSpansBudget: over the initial temperatures the SA
// ablation sweeps, the derived cooling rate takes T from InitialTemp to
// InitialTemp/TempSpan over exactly the budget: the chain spends every
// step, starts at InitialTemp and never steps below the stop
// temperature.
func TestAnnealScheduleSpansBudget(t *testing.T) {
	const budget = 50
	for _, t0 := range []float64{0.05, 0.5, DefaultInitialTemp, 50, 10000} {
		b := newBowl()
		steps, res := annealSteps(t, Anneal{InitialTemp: t0}, b, Options{Budget: budget, Seed: 3})
		if len(steps) != budget || res.Evaluations != budget+1 || b.evals.Load() != budget+1 {
			t.Fatalf("t0=%g: ran %d steps and %d evaluations (problem saw %d), want %d and %d",
				t0, len(steps), res.Evaluations, b.evals.Load(), budget, budget+1)
		}
		if steps[0].Temp != t0 {
			t.Fatalf("t0=%g: first step at T=%g", t0, steps[0].Temp)
		}
		stop := t0 / TempSpan
		for i, s := range steps {
			if s.Iter != i || s.Temp < stop {
				t.Fatalf("t0=%g: step %d: iter %d at T=%g, want iter %d at T >= %g", t0, i, s.Iter, s.Temp, i, stop)
			}
		}
		rate, err := CoolingRateFor(budget, t0, stop)
		if err != nil {
			t.Fatal(err)
		}
		if final := steps[budget-1].Temp * (1 - rate); math.Abs(final-stop) > 1e-9*stop {
			t.Fatalf("t0=%g: schedule ends at T=%g, want the stop temperature %g", t0, final, stop)
		}
	}
}

func TestAnnealAcceptsWorseMovesAtHighTemp(t *testing.T) {
	p := rugged{&bowl{levels: []int{50, 50}, target: []int{25, 25}}}
	steps, _ := annealSteps(t, Anneal{InitialTemp: 1000}, p, Options{Budget: 2000, Seed: 4})
	accepted, worse := 0, 0
	for _, s := range steps {
		if s.Accepted {
			accepted++
		}
		if s.Worse {
			worse++
		}
	}
	if worse == 0 {
		t.Fatal("SA never accepted a worse solution; the acceptance function is broken")
	}
	if worse >= accepted {
		t.Fatalf("worse acceptances (%d) should be a minority of %d", worse, accepted)
	}
}

func TestAnnealNeverAcceptsNaN(t *testing.T) {
	steps, res := annealSteps(t, DefaultAnneal(), halfNaN{newBowl()}, Options{Budget: 400, Seed: 6})
	for _, s := range steps {
		if s.Accepted && math.IsInf(s.Candidate, 1) {
			t.Fatalf("iteration %d accepted a NaN (+Inf) candidate", s.Iter)
		}
	}
	if math.IsInf(res.BestEnergy, 1) || res.Best[0]%2 == 1 {
		t.Fatalf("best %v at %g lies in the NaN half", res.Best, res.BestEnergy)
	}
}

// TestAnnealOnStepObservesChainZeroOnly: the hook sees every step of
// chain 0 — the same steps a single-chain run makes — and nothing from
// the other chains or the other strategies.
func TestAnnealOnStepObservesChainZeroOnly(t *testing.T) {
	single, _ := annealSteps(t, DefaultAnneal(), newBowl(), Options{Budget: 100, Seed: 2})
	for _, par := range []int{1, 4} {
		multi, _ := annealSteps(t, DefaultAnneal(), newBowl(), Options{Budget: 100, Seed: 2, Restarts: 4, Parallelism: par})
		if !reflect.DeepEqual(single, multi) {
			t.Fatalf("parallelism %d: observer saw %d steps, want chain 0's %d", par, len(multi), len(single))
		}
	}
	for _, s := range []Strategy{Exhaustive{}, Genetic{}, Tabu{}, Local{}, Random{}} {
		called := false
		if _, err := s.Minimize(newBowl(), Options{Budget: 50, Seed: 1, OnStep: func(Step) { called = true }}); err != nil {
			t.Fatal(err)
		}
		if called {
			t.Errorf("%s called OnStep", s.Name())
		}
	}
}

func TestAnnealValidation(t *testing.T) {
	if _, err := DefaultAnneal().Minimize(zeroDim{}, Options{}); err == nil {
		t.Error("zero-dimensional problem should fail")
	}
	if _, err := (Anneal{InitialTemp: -5}).Minimize(newBowl(), Options{}); err == nil {
		t.Error("negative initial temperature should fail")
	}
	// A budget this long rounds the derived rate to exactly 0.
	if _, err := DefaultAnneal().Minimize(newBowl(), Options{Budget: 1 << 60}); err == nil {
		t.Error("a cooling rate outside (0,1) should fail")
	}
}

func TestAnnealFindsQuadraticMinimum(t *testing.T) {
	p := &bowl{levels: []int{20, 20, 20}, target: []int{7, 13, 2}}
	res, err := DefaultAnneal().Minimize(p, Options{Budget: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEnergy != 0 {
		t.Fatalf("best energy = %g at %v, want 0 at %v", res.BestEnergy, res.Best, p.target)
	}
}

// TestAnnealIterationBudgetRespected: one chain runs exactly Budget
// iterations and evaluates its initial state plus one candidate each.
func TestAnnealIterationBudgetRespected(t *testing.T) {
	b := &bowl{levels: []int{10, 10}, target: []int{3, 3}}
	steps, res := annealSteps(t, DefaultAnneal(), b, Options{Budget: 250, Seed: 2})
	if len(steps) != 250 {
		t.Fatalf("iterations = %d, want 250", len(steps))
	}
	if res.Evaluations != 251 || b.evals.Load() != 251 {
		t.Fatalf("evaluations = %d (problem saw %d), want 251", res.Evaluations, b.evals.Load())
	}
}

func TestAnnealDeterministicBySeed(t *testing.T) {
	mk := func() *bowl { return &bowl{levels: []int{30, 30, 30, 30}, target: []int{11, 22, 5, 17}} }
	s1, r1 := annealSteps(t, DefaultAnneal(), mk(), Options{Budget: 500, Seed: 42})
	s2, r2 := annealSteps(t, DefaultAnneal(), mk(), Options{Budget: 500, Seed: 42})
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(s1, s2) {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
	s3, r3 := annealSteps(t, DefaultAnneal(), mk(), Options{Budget: 500, Seed: 43})
	if reflect.DeepEqual(r1, r3) && reflect.DeepEqual(s1, s3) {
		t.Log("different seeds produced identical runs (possible but unlikely)")
	}
}

// TestAnnealOnStepObserves: the hook sees every iteration in order, and
// the best energy it reports never increases.
func TestAnnealOnStepObserves(t *testing.T) {
	steps, res := annealSteps(t, DefaultAnneal(), &bowl{levels: []int{10}, target: []int{5}}, Options{Budget: 100, Seed: 5})
	if len(steps) != 100 {
		t.Fatalf("OnStep called %d times, want 100", len(steps))
	}
	lastBest := math.Inf(1)
	for i, s := range steps {
		if s.Iter != i {
			t.Fatalf("step %d reported iter %d", i, s.Iter)
		}
		if s.Best > lastBest {
			t.Fatalf("best energy increased at iter %d: %g -> %g", s.Iter, lastBest, s.Best)
		}
		lastBest = s.Best
	}
	if lastBest != res.BestEnergy {
		t.Fatalf("last observed best %g, result %g", lastBest, res.BestEnergy)
	}
}

// Property: the reported best energy is never above any candidate the
// observer saw, and the returned best state has the reported energy.
func TestAnnealBestIsTrulyBestProperty(t *testing.T) {
	f := func(seed int64, itersRaw uint8) bool {
		p := &bowl{levels: []int{16, 16}, target: []int{9, 4}}
		minSeen := math.Inf(1)
		res, err := DefaultAnneal().Minimize(p, Options{Budget: int(itersRaw)%300 + 10, Seed: seed, OnStep: func(s Step) {
			minSeen = math.Min(minSeen, s.Candidate)
		}})
		if err != nil || res.BestEnergy > minSeen {
			return false
		}
		e, _ := p.Energy(res.Best)
		return e == res.BestEnergy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// TestAnnealSingleChainMatchesPlainRun: Restarts 1 is the plain run,
// step for step.
func TestAnnealSingleChainMatchesPlainRun(t *testing.T) {
	a := Anneal{InitialTemp: 50}
	mk := func() *bowl { return &bowl{levels: []int{12, 12, 12}, target: []int{3, 7, 1}} }
	plainSteps, plain := annealSteps(t, a, mk(), Options{Budget: 400, Seed: 9})
	oneSteps, one := annealSteps(t, a, mk(), Options{Budget: 400, Seed: 9, Restarts: 1})
	if !reflect.DeepEqual(plain, one) || !reflect.DeepEqual(plainSteps, oneSteps) {
		t.Fatalf("one chain diverged from the plain run:\nplain %+v\none   %+v", plain, one)
	}
	if one.Worker != 0 || one.Workers != 1 {
		t.Fatalf("chain bookkeeping = %d/%d", one.Worker, one.Workers)
	}
}

func newRugged() rugged {
	return rugged{&bowl{levels: []int{16, 16, 16, 16}, target: []int{5, 2, 9, 11}}}
}

func TestAnnealRestartsDeterministicAcrossParallelism(t *testing.T) {
	a := Anneal{InitialTemp: 100}
	run := func(parallelism int) ([]Step, Result) {
		return annealSteps(t, a, newRugged(), Options{Budget: 300, Seed: 4, Restarts: 6, Parallelism: parallelism})
	}
	wantSteps, want := run(1)
	for _, p := range []int{4, 8} {
		if steps, got := run(p); !reflect.DeepEqual(want, got) || !reflect.DeepEqual(wantSteps, steps) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, got)
		}
	}
}

// TestAnnealPicksBestChain: the winner is the best of the standalone
// chain-seeded chains, and the effort is every chain's budget+1.
func TestAnnealPicksBestChain(t *testing.T) {
	a := Anneal{InitialTemp: 100}
	res, err := a.Minimize(newRugged(), Options{Budget: 200, Seed: 11, Restarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Workers != 5 {
		t.Fatalf("ran %d chains, want 5", res.Workers)
	}
	for i := 0; i < 5; i++ {
		c, err := a.Minimize(newRugged(), Options{Budget: 200, Seed: search.ChainSeed(11, i)})
		if err != nil {
			t.Fatal(err)
		}
		if c.BestEnergy < res.BestEnergy {
			t.Fatalf("chain %d energy %g beats winner %g", i, c.BestEnergy, res.BestEnergy)
		}
		if i == res.Worker && c.BestEnergy != res.BestEnergy {
			t.Fatal("winner's energy does not match its chain result")
		}
	}
	if res.Evaluations != 5*201 {
		t.Fatalf("total evaluations = %d, want %d", res.Evaluations, 5*201)
	}
}

// TestAnnealChainsImproveOnRugged: on a deceptive landscape more chains
// can only help, the winner being a min over a superset of chain 0.
func TestAnnealChainsImproveOnRugged(t *testing.T) {
	a := Anneal{InitialTemp: 100}
	single, err := a.Minimize(newRugged(), Options{Budget: 150, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	many, err := a.Minimize(newRugged(), Options{Budget: 150, Seed: 3, Restarts: 8})
	if err != nil {
		t.Fatal(err)
	}
	if many.BestEnergy > single.BestEnergy {
		t.Fatalf("8 chains (%g) worse than chain 0 alone (%g)", many.BestEnergy, single.BestEnergy)
	}
}
