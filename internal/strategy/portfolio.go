package strategy

import (
	"fmt"

	"hetopt/internal/search"
)

// Portfolio races member strategies concurrently over one shared
// evaluation memo, following the portfolio framing implicit in the
// paper's strategy comparison: instead of betting on one metaheuristic,
// run several and keep the best. Every member
// receives the same Options — the same budget, base seed and restart
// count it would get standalone — so the portfolio's best result is
// never worse than its best member's, by construction (the winner is
// the lowest best energy, ties broken by the lowest member index, and
// evaluations are pure so sharing the memo changes no value).
//
// The race is twofold: members run concurrently (up to
// Options.Parallelism at once, each fanning its own restarts out over
// the same worker budget), and an evaluation paid by whichever member
// reaches a state first is free for every other member — once a
// state's evaluation is published in the shared memo, no member pays
// for it again (two members that reach a state at the same moment may
// both evaluate it). The memo is a search.DenseMemo keyed by the state's
// ordinal, so it needs a product space of at most
// search.MaxDenseOrdinals states; on any other problem the members race
// without one, evaluating through the problem alone. Members that
// exhaust their budget early simply stand as best-so-far until the
// slowest member finishes. Race reports the cache accounting that
// proves the sharing.
type Portfolio struct {
	// Members are the racing strategies, in reporting order. A member
	// requiring Spaced fails the race on problems with coupled
	// coordinates; pick Initial/Neighbor-driven members (Anneal) there.
	Members []Strategy
	// ExactLimit, when positive, appends an Exact{Prove: true} member
	// to the race whenever the problem is a product space of at most
	// this many states — small enough that a certified solve is
	// affordable — so the portfolio returns a proven optimum (and its
	// certificate) on small spaces for free. Zero never adds it,
	// preserving the explicitly-listed member set exactly.
	ExactLimit int
}

// DefaultExactLimit is the space-size gate under which DefaultPortfolio
// races the exact member: it covers the paper's 19,926-config schema
// and every registered DAG preset, while leaving unboundedly large
// product spaces to the heuristics.
const DefaultExactLimit = 1 << 16

// DefaultPortfolio races the paper's annealer against all four
// alternative metaheuristics, plus the exact branch-and-bound member on
// spaces within DefaultExactLimit.
func DefaultPortfolio() Portfolio {
	return Portfolio{
		Members:    []Strategy{DefaultAnneal(), Genetic{}, Tabu{}, Local{}, Random{}},
		ExactLimit: DefaultExactLimit,
	}
}

// Name implements Strategy.
func (Portfolio) Name() string { return "portfolio" }

// PortfolioResult reports a completed race with per-member outcomes and
// the shared-cache accounting.
type PortfolioResult struct {
	// Result is the winning member's result; Result.Worker is the
	// winning member index and Result.Evaluations the portfolio-wide
	// logical total.
	Result
	// MemberNames and PerMember report each member's name and outcome,
	// indexed in Members order.
	MemberNames []string
	PerMember   []Result
	// Lookups, Unique and Hits are the shared memo's accounting across
	// the whole race: Unique is the number of distinct states evaluated,
	// Hits the rest — lookups served from the memo, plus the rare
	// evaluation a member repeated because it raced another on the same
	// state. All three are zero when the race ran without a memo.
	Lookups, Unique, Hits int
}

// Race runs all members and returns the detailed outcome.
func (pf Portfolio) Race(p Problem, opt Options) (PortfolioResult, error) {
	if len(pf.Members) == 0 {
		return PortfolioResult{}, fmt.Errorf("strategy: portfolio has no members")
	}
	members := pf.Members
	shared := p
	var memo *search.DenseMemo[float64]
	if sp, sh, err := productSpace("portfolio", p); err == nil && sh.size > 0 {
		if sh.size <= pf.ExactLimit {
			members = append(members[:len(members):len(members)], Exact{Prove: true})
		}
		if sh.size <= search.MaxDenseOrdinals {
			memo = search.NewDenseMemo[float64](sh.size)
			mp := &spacedMemoProblem{Spaced: sp, memo: memo, shape: sh}
			shared = mp
			if _, ok := sp.(Bounded); ok {
				shared = boundedSpacedMemoProblem{mp}
			}
		}
	}
	// Split the parallelism budget between the two fan-out levels:
	// up to Parallelism members race concurrently, and each member's
	// internal worker pool gets the remaining share, so total
	// concurrency stays near Parallelism instead of Parallelism^2.
	// Parallelism never affects results, only wall-clock.
	racing := opt.Parallelism
	if racing > len(members) {
		racing = len(members)
	}
	memberOpt := opt
	if racing > 1 {
		memberOpt.Parallelism = opt.Parallelism / racing
		if memberOpt.Parallelism < 1 {
			memberOpt.Parallelism = 1
		}
	}
	results := make([]Result, len(members))
	err := search.ForEach(len(members), opt.Parallelism, func(i int) error {
		r, err := members[i].Minimize(shared, memberOpt)
		if err != nil {
			return fmt.Errorf("strategy: portfolio member %s: %w", members[i].Name(), err)
		}
		results[i] = r
		return nil
	})
	if err != nil {
		return PortfolioResult{}, err
	}

	out := PortfolioResult{
		PerMember:   results,
		MemberNames: make([]string, len(members)),
	}
	for i, m := range members {
		out.MemberNames[i] = m.Name()
	}
	best := 0
	for i := 1; i < len(results); i++ {
		if results[i].BestEnergy < results[best].BestEnergy {
			best = i
		}
	}
	out.Result = results[best]
	out.Worker = best
	// A certificate certifies an energy value, not a member: when the
	// exact member proved the winning energy optimal but lost the
	// lowest-index tie-break, its certificate (and pool) still apply to
	// the winner.
	if out.Cert == nil {
		for _, r := range results {
			if r.Cert != nil && r.Cert.Optimal && r.BestEnergy == out.BestEnergy {
				out.Cert, out.Pool = r.Cert, r.Pool
				break
			}
		}
	}
	out.Evaluations = 0
	out.Workers = 0
	for _, r := range results {
		out.Evaluations += r.Evaluations
		out.Workers += r.Workers
	}
	if memo != nil {
		out.Lookups, out.Unique, out.Hits = memo.Lookups(), memo.Unique(), memo.Hits()
	}
	return out, nil
}

// Minimize implements Strategy.
func (pf Portfolio) Minimize(p Problem, opt Options) (Result, error) {
	res, err := pf.Race(p, opt)
	if err != nil {
		return Result{}, err
	}
	return res.Result, nil
}

// spacedMemoProblem puts the race's shared memo in front of a
// product-space problem's Energy, keyed by the state's ordinal in
// shape, so a state one member has evaluated is free for the others.
// Evaluations are pure, so the memo never changes a value, only the
// physical effort spent.
type spacedMemoProblem struct {
	Spaced
	memo  *search.DenseMemo[float64]
	shape shape
}

func (m *spacedMemoProblem) Energy(state []int) (float64, error) {
	ord, ok := m.shape.ordinal(state)
	if !ok {
		// Off-grid states are invalid; let the problem report that.
		return m.Spaced.Energy(state)
	}
	return m.memo.Do(ord, func() (float64, error) {
		return m.Spaced.Energy(state)
	})
}

// boundedSpacedMemoProblem additionally forwards ChildBounds, so the
// exact member still prunes over the shared memo. It is a distinct type
// (not a method on spacedMemoProblem) so a memo never advertises bounds
// its problem lacks.
type boundedSpacedMemoProblem struct{ *spacedMemoProblem }

func (m boundedSpacedMemoProblem) ChildBounds(prefix []int, fixed int, out []float64) {
	m.Spaced.(Bounded).ChildBounds(prefix, fixed, out)
}
