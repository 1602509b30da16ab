// Package strategy is the pluggable search layer: every optimizer in
// the codebase — the paper's simulated annealing (Section III-A),
// exhaustive enumeration ("enumeration, also known as brute-force"),
// and the alternative metaheuristics the paper weighs before choosing
// SA (genetic algorithms, local search, tabu search, random sampling) —
// is a Strategy over one shared representation: budgeted, seeded
// minimization of an energy over integer index vectors, the
// representation internal/space builds its configuration spaces from.
// Problem is the codebase's only search-problem interface, and every
// randomized strategy fans its workers out through one restart runner.
//
// Unifying the search layer turns every optimizer x objective x space
// combination into a first-class scenario: internal/core runs its four
// paper methods as thin presets (EM/EML = Exhaustive, SAM/SAML =
// Anneal) over an injected Strategy, and Portfolio races any set of
// member strategies concurrently over a shared evaluation memo so a
// configuration one member has paid for is free for the others. Every
// other strategy evaluates through Problem.Energy alone: memoizing
// evaluations is the problem's evaluator's job.
//
// Seeding contract: worker i of any strategy (annealing chain,
// heuristic restart, portfolio member's workers) draws its seed from
// search.ChainSeed(Options.Seed, i). Winners are selected by
// (energy, worker index), never by completion order, and evaluations
// are pure functions of the state, so for a fixed (Strategy, Options)
// the Result is bit-identical at every Parallelism level.
package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hetopt/internal/search"
)

// Problem is a discrete minimization problem over integer index
// vectors. Energy must be a pure function of the state and safe for
// concurrent use (strategies call it from several workers); Initial and
// Neighbor must draw all randomness from the supplied rng.
type Problem interface {
	// Dim returns the length of a state vector.
	Dim() int
	// Initial writes a valid starting state into dst.
	Initial(dst []int, rng *rand.Rand)
	// Neighbor writes into dst a neighbor of src; dst and src may alias.
	Neighbor(dst, src []int, rng *rand.Rand)
	// Energy evaluates a state; lower is better. NaN energies are
	// treated as +Inf (never selected).
	Energy(state []int) (float64, error)
}

// Spaced is implemented by problems whose states form a full product
// space: every combination of per-dimension levels is a valid state.
// Strategies that enumerate or recombine states coordinate-wise
// (Exhaustive, Genetic, Tabu, Local, Random) require it; problems with
// coupled coordinates (e.g. the multi-device fraction simplex) support
// only the Initial/Neighbor-driven strategies such as Anneal.
type Spaced interface {
	Problem
	// Levels returns the number of values coordinate i can take.
	Levels(i int) int
}

// Options configures a strategy run. The zero value is usable.
type Options struct {
	// Budget caps the number of energy evaluations each worker spends:
	// annealing candidates per chain (each chain additionally evaluates
	// its initial state), heuristic evaluations per restart. Exhaustive
	// ignores it (enumeration visits every state exactly once). Zero
	// selects 1000, the budget the paper highlights for SA.
	Budget int
	// Seed is the base seed; worker i derives search.ChainSeed(Seed, i).
	Seed int64
	// Restarts is the number of independent workers K (annealing chains,
	// heuristic restarts). Each worker runs the full Budget from its own
	// seed; the best worker wins, ties broken by the lowest index.
	// Every worker evaluates through the problem itself: a state
	// visited by several workers costs one evaluation only when the
	// problem's own evaluator memoizes it. Zero or one runs a single
	// worker, reproducing the plain single-run behavior exactly.
	Restarts int
	// Parallelism caps the number of workers running concurrently. The
	// Result is bit-identical at every level; zero or one runs
	// sequentially.
	Parallelism int
	// OnStep, when non-nil, observes every iteration of Anneal's chain 0
	// (the other chains and the other strategies never call it). It runs
	// on that chain's goroutine.
	OnStep func(Step)
}

func (o Options) budget() int {
	if o.Budget <= 0 {
		return 1000
	}
	return o.Budget
}

func (o Options) restarts() int {
	if o.Restarts <= 1 {
		return 1
	}
	return o.Restarts
}

// Result is the outcome of a strategy run.
type Result struct {
	// Best is the lowest-energy state found; BestEnergy its energy.
	Best       []int
	BestEnergy float64
	// Evaluations counts Energy calls across all workers (the logical
	// search effort; Portfolio counts its members' calls into its
	// shared memo, hits included).
	Evaluations int
	// Worker is the index of the winning worker: the chain for Anneal,
	// the restart for the heuristic strategies, the member for
	// Portfolio, 0 for Exhaustive (its decomposition into shards is
	// data-parallel, not a set of independent searches).
	Worker int
	// Workers is the number of independent workers that ran (1 for
	// Exhaustive; for Portfolio, the sum over members).
	Workers int
	// Cert, when non-nil, is the optimality certificate of an exact
	// branch-and-bound run (nil for every heuristic strategy; Portfolio
	// propagates the exact member's certificate when it certifies the
	// winning energy). Read it through Certificate(), which spares the
	// nil-check.
	Cert *Certificate
	// Pool is the exact strategy's diverse near-optimal solution pool
	// (empty for heuristics and when no pool was requested). Read it
	// through PoolEntries().
	Pool []PoolEntry
}

// runWorkers is the restart runner behind every randomized strategy: it
// runs opt.restarts() independent workers through search.ForEach, worker
// i drawing from its own rng seeded search.ChainSeed(opt.Seed, i). Every
// worker evaluates through the strategy's problem itself, with no memo
// in between. The winner is the lowest best energy, ties broken by the
// lowest worker index, and Evaluations sums every worker's — so the
// Result is bit-identical at every Parallelism. The lowest-index worker
// error is returned unwrapped.
func runWorkers(opt Options, work func(w int, rng *rand.Rand) (Result, error)) (Result, error) {
	k := opt.restarts()
	results := make([]Result, k)
	err := search.ForEach(k, opt.Parallelism, func(i int) error {
		var err error
		results[i], err = work(i, rand.New(rand.NewSource(search.ChainSeed(opt.Seed, i))))
		return err
	})
	if err != nil {
		return Result{}, err
	}
	out := results[0]
	for i, r := range results[1:] {
		out.Evaluations += r.Evaluations
		if r.BestEnergy < out.BestEnergy {
			out.Best, out.BestEnergy, out.Worker = r.Best, r.BestEnergy, i+1
		}
	}
	out.Workers = k
	return out, nil
}

// Certificate returns the run's optimality certificate; ok is false for
// heuristic strategies, which cannot certify anything. Callers never
// need to touch the raw Cert pointer.
func (r Result) Certificate() (Certificate, bool) {
	if r.Cert == nil {
		return Certificate{}, false
	}
	return *r.Cert, true
}

// PoolEntries returns the diverse solution pool, nil unless an exact
// run collected one.
func (r Result) PoolEntries() []PoolEntry { return r.Pool }

// Strategy is one search method over the shared representation.
// Implementations must be deterministic for a fixed Options at every
// Parallelism level, and must document whether they require Spaced.
type Strategy interface {
	// Name identifies the strategy in reports, tables and CLI flags.
	Name() string
	// Minimize runs the search on p under opt.
	Minimize(p Problem, opt Options) (Result, error)
}

// shape is the mixed-radix layout of a product space, the one place
// levels, sizes and ordinals are computed. The last dimension varies
// fastest, matching space.Space flattening, so lexicographic order is
// ordinal order.
type shape struct {
	levels []int
	// strides[i] is the number of states sharing a prefix of length
	// i+1 (prod levels[i+1:]); the last stride is 1.
	strides []int
	// size is the number of states, 0 when that overflows int (the
	// space is then too large to enumerate or to memoize densely).
	size int
}

// productSpace asserts that strategy name got a product space with at
// least one dimension and at least one level per dimension, and
// returns its shape.
func productSpace(name string, p Problem) (Spaced, shape, error) {
	sp, ok := p.(Spaced)
	if !ok {
		return nil, shape{}, fmt.Errorf("strategy: %s requires a product-space problem (strategy.Spaced); %T has coupled coordinates", name, p)
	}
	dim := sp.Dim()
	if dim <= 0 {
		return nil, shape{}, fmt.Errorf("strategy: %s: problem has no dimensions", name)
	}
	buf := make([]int, 2*dim)
	sh := shape{levels: buf[:dim:dim], strides: buf[dim:], size: 1}
	for i := dim - 1; i >= 0; i-- {
		n := sp.Levels(i)
		if n <= 0 {
			return nil, shape{}, fmt.Errorf("strategy: %s: dimension %d has no levels", name, i)
		}
		sh.levels[i], sh.strides[i] = n, sh.size
		if sh.size > math.MaxInt/n {
			sh.size = 0
		}
		sh.size *= n
	}
	return sp, sh, nil
}

// ordinal is the mixed-radix ordinal of state, ok false when state is
// not a point of the space.
func (s shape) ordinal(state []int) (ord int, ok bool) {
	if len(state) != len(s.levels) {
		return 0, false
	}
	for i, v := range state {
		if v < 0 || v >= s.levels[i] {
			return 0, false
		}
		ord = ord*s.levels[i] + v
	}
	return ord, true
}

// unflatten writes the mixed-radix digits of ord into idx.
func (s shape) unflatten(idx []int, ord int) {
	for i := len(s.levels) - 1; i >= 0; i-- {
		idx[i] = ord % s.levels[i]
		ord /= s.levels[i]
	}
}

// sanitize maps NaN to +Inf so broken evaluations are never selected.
func sanitize(e float64) float64 {
	if math.IsNaN(e) {
		return math.Inf(1)
	}
	return e
}

// Names lists the parseable strategy names in presentation order.
func Names() []string {
	return []string{"anneal", "exhaustive", "exact", "genetic", "tabu", "local", "random", "portfolio"}
}

// Parse converts a CLI-style strategy name into a Strategy with default
// construction parameters: "anneal" uses DefaultAnneal (the paper's
// schedule rescaled to seconds-valued energies), and "portfolio" races
// DefaultPortfolio's members. An empty name returns (nil, nil), meaning
// "let the caller pick its method preset".
func Parse(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "auto":
		return nil, nil
	case "anneal":
		return DefaultAnneal(), nil
	case "exhaustive":
		return Exhaustive{}, nil
	case "exact":
		return Exact{}, nil
	case "genetic":
		return Genetic{}, nil
	case "tabu":
		return Tabu{}, nil
	case "local":
		return Local{}, nil
	case "random":
		return Random{}, nil
	case "portfolio":
		return DefaultPortfolio(), nil
	default:
		return nil, fmt.Errorf("strategy: unknown strategy %q (want %s)", name, strings.Join(Names(), ", "))
	}
}
