package strategy

import (
	"fmt"
	"math"
	"math/rand"
)

// DefaultInitialTemp is the SA starting temperature for seconds-scale
// energies. The paper anneals from 10^4 down to 1; the objective here is
// measured in seconds (0.1-40) rather than the milliseconds-scale
// numbers that schedule implies, so the same 10^4 dynamic range is
// anchored at 5.
const DefaultInitialTemp = 5.0

// TempSpan is the ratio between initial and stop temperature (10^4, the
// paper's 10000 -> "T < 1" span).
const TempSpan = 1e4

// Anneal is simulated annealing, the paper's chosen metaheuristic,
// exactly as Section III-A and Figure 3 describe it:
//
//   - the schedule is T = T * (1 - coolingRate) (Equation 3), with the
//     rate derived so T falls from InitialTemp to the stop temperature
//     InitialTemp/TempSpan over exactly the budget;
//   - a candidate with energy E' is accepted unconditionally when
//     E' < E, and otherwise with probability exp((E - E') / T)
//     (Equation 4);
//   - a chain stops once T drops below the stop temperature or its
//     budget is spent, tracking the best state seen alongside the
//     current one.
//
// K independent chains (Options.Restarts) run through the shared
// restart runner. Each chain makes budget+1 Energy calls; a state
// visited by several chains costs one evaluation only when the
// problem's evaluator memoizes it. It works on any Problem (Spaced not
// required). Options.OnStep observes chain 0.
type Anneal struct {
	// InitialTemp is the starting temperature; zero selects
	// DefaultInitialTemp. The stop temperature is InitialTemp/TempSpan,
	// preserving the paper's schedule shape.
	InitialTemp float64
}

// DefaultAnneal is the paper-preset annealing strategy.
func DefaultAnneal() Anneal { return Anneal{} }

// Name implements Strategy.
func (Anneal) Name() string { return "anneal" }

// Step describes one annealing iteration for Options.OnStep observers.
type Step struct {
	// Iter counts iterations from 0.
	Iter int
	// Temp is the temperature when the step was evaluated.
	Temp float64
	// Candidate is the proposed energy E'; Current and Best are the
	// energies after the acceptance decision.
	Candidate, Current, Best float64
	// Accepted reports whether the candidate replaced the current
	// solution; Worse additionally reports that it was an uphill
	// (worse-energy) acceptance.
	Accepted, Worse bool
}

// CoolingRateFor returns the cooling rate at which the schedule
// T = T*(1-rate) decays from initialTemp to stopTemp in exactly iters
// iterations. It returns an error for non-positive arguments or
// stopTemp >= initialTemp.
func CoolingRateFor(iters int, initialTemp, stopTemp float64) (float64, error) {
	if iters <= 0 {
		return 0, fmt.Errorf("anneal: iteration count must be positive, got %d", iters)
	}
	if initialTemp <= 0 || stopTemp <= 0 {
		return 0, fmt.Errorf("anneal: temperatures must be positive (initial %g, stop %g)", initialTemp, stopTemp)
	}
	if stopTemp >= initialTemp {
		return 0, fmt.Errorf("anneal: stop temperature %g must be below initial %g", stopTemp, initialTemp)
	}
	return 1 - math.Pow(stopTemp/initialTemp, 1/float64(iters)), nil
}

// Minimize implements Strategy.
func (a Anneal) Minimize(p Problem, opt Options) (Result, error) {
	if p.Dim() <= 0 {
		return Result{}, fmt.Errorf("anneal: problem dimension must be positive")
	}
	t0 := a.InitialTemp
	if t0 == 0 {
		t0 = DefaultInitialTemp
	}
	if t0 < 0 {
		return Result{}, fmt.Errorf("anneal: negative initial temperature %g", t0)
	}
	stop := t0 / TempSpan
	budget := opt.budget()
	rate, err := CoolingRateFor(budget, t0, stop)
	if err != nil {
		return Result{}, err
	}
	if rate <= 0 || rate >= 1 {
		return Result{}, fmt.Errorf("anneal: cooling rate %g outside (0,1)", rate)
	}
	return runWorkers(opt, func(w int, rng *rand.Rand) (Result, error) {
		onStep := opt.OnStep
		if w != 0 {
			onStep = nil
		}
		return annealChain(p, rng, t0, stop, rate, budget, onStep)
	})
}

// annealChain runs one chain of Figure 3's loop.
func annealChain(p Problem, rng *rand.Rand, temp, stop, rate float64, budget int, onStep func(Step)) (Result, error) {
	cur := make([]int, p.Dim())
	p.Initial(cur, rng)
	curE, err := p.Energy(cur)
	if err != nil {
		return Result{}, err
	}
	curE = sanitize(curE)
	best := append([]int(nil), cur...)
	bestE := curE
	cand := make([]int, p.Dim())
	evals := 1
	for iter := 0; temp >= stop && iter < budget; iter++ {
		p.Neighbor(cand, cur, rng)
		candE, err := p.Energy(cand)
		if err != nil {
			return Result{}, err
		}
		candE = sanitize(candE)
		evals++

		accepted, worse := candE < curE, false
		// Equation 4: p = exp((E - E')/T); +Inf is never accepted.
		if !accepted && temp > 0 && !math.IsInf(candE, 1) && math.Exp((curE-candE)/temp) > rng.Float64() {
			accepted, worse = true, candE > curE
		}
		if accepted {
			copy(cur, cand)
			curE = candE
			if curE < bestE {
				bestE = curE
				copy(best, cur)
			}
		}
		if onStep != nil {
			onStep(Step{Iter: iter, Temp: temp, Candidate: candE, Current: curE, Best: bestE, Accepted: accepted, Worse: worse})
		}
		temp *= 1 - rate // Equation 3.
	}
	return Result{Best: best, BestEnergy: bestE, Evaluations: evals}, nil
}
