package strategy

import (
	"math"
	"math/rand"
	"slices"
)

// The metaheuristic strategies are the alternatives the paper weighs
// against simulated annealing in Section III-A, citing Press et al.:
// genetic algorithms, local search and tabu search, plus uniform random
// sampling as the baseline. Each restart spends at most Options.Budget
// evaluations; restarts run through the shared restart runner. All of
// them recombine or mutate states coordinate-wise, so they require
// Spaced.

// counter charges evaluations against one restart's budget. An Energy
// error spends the rest of the budget, so every search loop winds down
// at once and the restart returns the error unwrapped.
type counter struct {
	p     Spaced
	used  int
	limit int
	err   error
}

func newCounter(p Problem, budget int) *counter {
	return &counter{p: p.(Spaced), limit: budget}
}

func (c *counter) spent() bool { return c.used >= c.limit }

// eval evaluates one state; ok is false once the budget is spent.
func (c *counter) eval(state []int) (float64, bool) {
	if c.spent() {
		return math.Inf(1), false
	}
	e, err := c.p.Energy(state)
	if err != nil {
		c.fail(err)
		return math.Inf(1), false
	}
	c.used++
	return sanitize(e), true
}

func (c *counter) fail(err error) {
	c.err = err
	c.limit = c.used
}

// result packages a restart's outcome.
func (c *counter) result(best []int, bestE float64) (Result, error) {
	if c.err != nil {
		return Result{}, c.err
	}
	return Result{Best: best, BestEnergy: bestE, Evaluations: c.used}, nil
}

// randomState fills dst uniformly.
func randomState(p Spaced, dst []int, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Intn(p.Levels(i))
	}
}

// Random is uniform random sampling: the natural lower baseline every
// other strategy must beat.
type Random struct{}

// Name implements Strategy.
func (Random) Name() string { return "random" }

// Minimize implements Strategy.
func (Random) Minimize(p Problem, opt Options) (Result, error) {
	if _, _, err := productSpace("random", p); err != nil {
		return Result{}, err
	}
	return runWorkers(opt, func(_ int, rng *rand.Rand) (Result, error) {
		c := newCounter(p, opt.budget())
		cur := make([]int, p.Dim())
		best := make([]int, p.Dim())
		bestE := math.Inf(1)
		for !c.spent() {
			randomState(c.p, cur, rng)
			e, ok := c.eval(cur)
			if !ok {
				break
			}
			if e < bestE {
				bestE = e
				copy(best, cur)
			}
		}
		return c.result(best, bestE)
	})
}

// Local is steepest-descent hill climbing with random restarts within
// each worker's budget: from a random start it repeatedly moves to the
// best single-coordinate change, restarting from a fresh random state
// at local minima, until the budget is spent.
type Local struct{}

// Name implements Strategy.
func (Local) Name() string { return "local" }

// Minimize implements Strategy.
func (Local) Minimize(p Problem, opt Options) (Result, error) {
	if _, _, err := productSpace("local", p); err != nil {
		return Result{}, err
	}
	return runWorkers(opt, func(_ int, rng *rand.Rand) (Result, error) {
		c := newCounter(p, opt.budget())
		cur := make([]int, p.Dim())
		cand := make([]int, p.Dim())
		best := make([]int, p.Dim())
		bestE := math.Inf(1)
		for !c.spent() {
			randomState(c.p, cur, rng)
			curE, ok := c.eval(cur)
			if !ok {
				break
			}
			if curE < bestE {
				bestE = curE
				copy(best, cur)
			}
			for !c.spent() { // descend
				bestMoveE := curE
				bestMoveParam := -1
				var bestMoveValue int
				for i := 0; i < p.Dim() && !c.spent(); i++ {
					for v := 0; v < c.p.Levels(i); v++ {
						if v == cur[i] {
							continue
						}
						copy(cand, cur)
						cand[i] = v
						e, ok := c.eval(cand)
						if !ok {
							break
						}
						if e < bestMoveE {
							bestMoveE = e
							bestMoveParam, bestMoveValue = i, v
						}
					}
				}
				if bestMoveParam < 0 {
					break
				}
				cur[bestMoveParam] = bestMoveValue
				curE = bestMoveE
				if curE < bestE {
					bestE = curE
					copy(best, cur)
				}
			}
		}
		return c.result(best, bestE)
	})
}

// Tabu is tabu search with a short-term memory: each iteration samples
// 4*Dim random single-coordinate moves and accepts the best non-tabu
// one even when worse, reversing a move is tabu for 2*Dim iterations,
// and tabu moves are still taken when they beat the global best
// (aspiration).
type Tabu struct{}

// Name implements Strategy.
func (Tabu) Name() string { return "tabu" }

// Minimize implements Strategy.
func (Tabu) Minimize(p Problem, opt Options) (Result, error) {
	sp, _, err := productSpace("tabu", p)
	if err != nil {
		return Result{}, err
	}
	tenure, samples := 2*p.Dim(), 4*p.Dim()
	// A space without a two-level dimension has no moves: sampling
	// would never spend budget, so each restart stops after its start.
	movable := false
	for i := 0; i < sp.Dim(); i++ {
		movable = movable || sp.Levels(i) >= 2
	}
	return runWorkers(opt, func(_ int, rng *rand.Rand) (Result, error) {
		c := newCounter(p, opt.budget())
		cur := make([]int, p.Dim())
		cand := make([]int, p.Dim())
		best := make([]int, p.Dim())
		randomState(c.p, cur, rng)
		bestE, _ := c.eval(cur)
		copy(best, cur)
		if !movable {
			return c.result(best, bestE)
		}

		type assignment struct{ param, value int }
		tabuUntil := map[assignment]int{}
		for iter := 0; !c.spent(); iter++ {
			chosen, chosenV, chosenE := -1, 0, math.Inf(1)
			for s := 0; s < samples && !c.spent(); s++ {
				i := rng.Intn(p.Dim())
				if c.p.Levels(i) < 2 {
					continue
				}
				v := rng.Intn(c.p.Levels(i) - 1)
				if v >= cur[i] {
					v++
				}
				copy(cand, cur)
				cand[i] = v
				e, ok := c.eval(cand)
				if !ok {
					break
				}
				// Moving *to* a tabu assignment is forbidden unless it
				// aspirates.
				if tabuUntil[assignment{i, v}] > iter && e >= bestE {
					continue
				}
				if e < chosenE {
					chosen, chosenV, chosenE = i, v, e
				}
			}
			if chosen < 0 {
				continue
			}
			// Forbid undoing this move for tenure iterations.
			tabuUntil[assignment{chosen, cur[chosen]}] = iter + tenure
			cur[chosen] = chosenV
			if chosenE < bestE {
				bestE = chosenE
				copy(best, cur)
			}
		}
		return c.result(best, bestE)
	})
}

// Genetic is a generational genetic algorithm with tournament
// selection, uniform crossover, per-gene mutation at rate 1/Dim and
// elitism: a population of 24 whose best 2 are copied unchanged into
// the next generation. A restart allocates its genes once: two
// generation buffers alternate, and each child is written over a gene
// slice no living individual holds.
type Genetic struct{}

// Name implements Strategy.
func (Genetic) Name() string { return "genetic" }

// Minimize implements Strategy.
func (Genetic) Minimize(p Problem, opt Options) (Result, error) {
	if _, _, err := productSpace("genetic", p); err != nil {
		return Result{}, err
	}
	pop, mut, elite := 24, 1/float64(p.Dim()), 2
	return runWorkers(opt, func(_ int, rng *rand.Rand) (Result, error) {
		c := newCounter(p, opt.budget())
		type indiv struct {
			genes  []int
			energy float64
		}
		// population and next are the two generation buffers, each
		// entry with a gene slice of its own from one backing array.
		dim := p.Dim()
		genes := make([]int, 2*pop*dim)
		buffers := make([]indiv, 2*pop)
		for i := range buffers {
			buffers[i].genes = genes[i*dim : (i+1)*dim : (i+1)*dim]
		}
		population, next := buffers[:pop], buffers[pop:]
		for i := range population {
			randomState(c.p, population[i].genes, rng)
			population[i].energy, _ = c.eval(population[i].genes)
		}
		best := append([]int(nil), population[0].genes...)
		bestE := population[0].energy
		record := func(in indiv) {
			if in.energy < bestE {
				bestE = in.energy
				copy(best, in.genes)
			}
		}
		for _, in := range population {
			record(in)
		}

		tournament := func() indiv {
			a := population[rng.Intn(pop)]
			b := population[rng.Intn(pop)]
			if a.energy <= b.energy {
				return a
			}
			return b
		}
		// makeChild writes a child over child, a gene slice no living
		// individual holds.
		makeChild := func(child []int) {
			ma, pa := tournament(), tournament()
			for i := range child {
				if rng.Intn(2) == 0 {
					child[i] = ma.genes[i]
				} else {
					child[i] = pa.genes[i]
				}
				if rng.Float64() < mut {
					child[i] = rng.Intn(c.p.Levels(i))
				}
			}
		}

		for !c.spent() {
			// Elitism: carry the best individuals over unchanged. The
			// order the sort leaves ties in decides later tournaments;
			// the comparator is negative exactly when a.energy <
			// b.energy, which fixes that order.
			slices.SortFunc(population, func(a, b indiv) int {
				switch {
				case a.energy < b.energy:
					return -1
				case a.energy > b.energy:
					return 1
				}
				return 0
			})
			// The elites' slices move to next. From elite on, next's
			// slots hold slices no individual of this generation holds
			// (the last generation's non-elites, or unused ones at
			// first), and the children are written over them.
			copy(next, population[:elite])
			n := elite
			for ; n < pop && !c.spent(); n++ {
				child := next[n].genes
				makeChild(child)
				e, ok := c.eval(child)
				if !ok {
					break
				}
				next[n].energy = e
				record(next[n])
			}
			if n < pop {
				break // budget exhausted mid-generation
			}
			population, next = next, population
		}
		return c.result(best, bestE)
	})
}
