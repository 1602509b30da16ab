package strategy

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"hetopt/internal/search"
)

// Bounded is optionally implemented by product-space problems that can
// bound partial assignments. ChildBounds bounds every child of the node
// prefix[:fixed] in one call: out[v], for each level v of dimension
// fixed, must be an admissible (never overestimating) lower bound on
// Energy over every state that agrees with prefix[:fixed] and takes
// level v in dimension fixed. len(out) is Levels(fixed); prefix entries
// at and beyond fixed are undefined and must not be read. Bounds should
// be monotone (a child's bound not below its parent's, up to rounding);
// correctness rests on admissibility alone. ChildBounds must be safe
// for concurrent use and write nothing but out.
// internal/core derives one from the roofline performance model,
// internal/graph from DAG critical paths.
type Bounded interface {
	Spaced
	ChildBounds(prefix []int, fixed int, out []float64)
}

// Pool-knob defaults, mirroring the Gurobi solution-pool parameters the
// serving layer exposes.
const (
	// DefaultPoolGap keeps pool candidates within 10% of the incumbent
	// when PoolGap is left zero.
	DefaultPoolGap = 0.10
	// MaxPoolSize bounds PoolSize for callers that validate external
	// input (the serving layer rejects larger requests).
	MaxPoolSize = 64
)

// minDiversity is the minimum pairwise L1 index distance between kept
// pool entries. 1 would only mean "distinct"; 2 forces genuinely
// different assignments.
const minDiversity = 2

// rootTarget is the minimum number of independent subtree roots the
// tree is split into (capped by the space size). It is a constant so
// the split — and therefore every count in the Certificate — is a pure
// function of the space shape, not of Parallelism.
const rootTarget = 16

// Exact is the deterministic branch-and-bound strategy — the ground
// truth of the search layer and the only member that returns a provable
// answer rather than a heuristic one. It returns a Certificate stating
// either that the best state found is the true optimum (the tree was
// exhausted) or how far it can possibly be from it (an admissible lower
// bound on everything left unexplored), plus a top-K pool of
// provably-good, mutually diverse alternate states in the Gurobi
// PoolSearchMode/PoolSolutions/PoolGap idiom.
//
// The tree fixes one dimension per level; a node at depth d is the set
// of all states agreeing with prefix[:d]. Problems that implement
// Bounded are pruned: subtrees whose bound already exceeds the
// incumbent are eliminated without evaluation. Others are solved as a
// certified exhaustive enumeration.
//
// It requires Spaced. Options.Budget caps energy evaluations per
// subtree root (the deterministic unit of work, mirroring the
// per-chain/per-restart budget of the heuristics); Prove lifts the cap.
// Options.Seed and Options.Restarts are ignored: the search draws no
// randomness and its decomposition is fixed.
//
// Determinism contract: for a fixed (Exact, Options) the Result —
// including the Certificate's Explored/Pruned counts and the pool — is
// bit-identical at every Parallelism level. The tree is split at a
// fixed depth (a pure function of the space shape, never of
// Parallelism) into independent subtree roots; each root runs
// sequentially, seeded with the same greedy-dive incumbent, and root
// results merge in root order by (energy, state ordinal) — never by
// completion order.
//
// A solve allocates per run, not per root, candidate or node: a worker
// reuses one rootState's buffers for every root it takes, a root's result
// is a few numbers (its best state is an ordinal), and pool candidates
// are (energy, ordinal) pairs whose states are rebuilt only for the
// entries the pool keeps.
type Exact struct {
	// Prove ignores the budget and always exhausts the tree.
	Prove bool
	// PoolSize, when positive, collects up to that many mutually
	// diverse states within PoolGap of the optimum (the best state is
	// always pool entry 0).
	PoolSize int
	// PoolGap is the relative gap defining "provably good": candidates
	// with energy <= best + PoolGap*|best| are pool-eligible, and
	// subtrees are only pruned against that widened threshold so
	// alternates survive. Zero selects DefaultPoolGap when PoolSize is
	// set; it is ignored otherwise.
	PoolGap float64
}

// Name implements Strategy.
func (Exact) Name() string { return "exact" }

// WithExactKnobs threads the exact-only knobs of a request or command
// line into a parsed strategy: s with Prove, PoolSize and PoolGap set
// when s is Exact, s unchanged otherwise. Callers reject the knobs for
// any other strategy before they get here.
func WithExactKnobs(s Strategy, prove bool, poolSize int, poolGap float64) Strategy {
	if ex, ok := s.(Exact); ok {
		ex.Prove, ex.PoolSize, ex.PoolGap = prove, poolSize, poolGap
		return ex
	}
	return s
}

// Certificate is the provable part of an exact Result.
type Certificate struct {
	// Optimal reports that the tree was exhausted: BestEnergy is the
	// true minimum over the whole space (ties broken by lowest state
	// ordinal, matching exhaustive enumeration).
	Optimal bool
	// LowerBound is an admissible lower bound on the true optimum. It
	// equals BestEnergy when Optimal; when the budget truncated the
	// search it is min(BestEnergy, bounds of the unexplored frontier).
	LowerBound float64
	// Gap is the relative optimality gap (BestEnergy-LowerBound)/
	// |BestEnergy| — 0 when proven, +Inf when nothing is known about
	// the frontier (an unbounded problem truncated mid-search).
	Gap float64
	// Explored counts states whose energy was evaluated inside the
	// tree; Pruned counts states eliminated by admissible bounds
	// without evaluation. For a proven solve Explored+Pruned equals the
	// space size; Explored < size is the proof that pruning is real.
	Explored int
	Pruned   int
}

// PoolEntry is one member of the diverse near-optimal solution pool.
type PoolEntry struct {
	// State is the index vector; Energy its evaluated energy. Each
	// entry's State is its own: writing to it, or appending, leaves
	// every other entry unchanged.
	State  []int
	Energy float64
}

// solver holds the per-solve immutable state shared by all roots.
type solver struct {
	shape
	p        Spaced
	b        Bounded // nil when p has no admissible bounds
	budget   int     // per-root leaf evaluations; -1 = unlimited
	poolSize int     // requested pool size (0 = no pool)
	gap      float64 // effective pool gap (0 when no pool)
	poolCap  int     // per-root candidate buffer cap
	// poolKeep is how many of the best candidates selectPool can ever
	// examine (see newSolver); a rootState keeps no more across roots.
	poolKeep int
	// offsets[d] is where depth d's children start in a rootState's
	// per-depth buffers; offsets[len(levels)] is their total length.
	offsets []int
	// dive incumbent shared read-only by every root.
	diveE   float64
	diveOrd int
}

// candidate is a pool candidate: its energy and its state's ordinal,
// which orders candidates deterministically and rebuilds the state.
type candidate struct {
	e   float64
	ord int
}

// rootResult is what the walk of one subtree root decides, its pool
// candidates aside.
type rootResult struct {
	bestE   float64
	bestOrd int
	evals   int
	pruned  int // states eliminated by bounds
	budget  int // remaining leaf evaluations; -1 = unlimited
	trunc   bool
	// frontier is the minimum bound over subtrees left unexplored by
	// budget truncation (+Inf when none).
	frontier float64
}

// rootState is one worker's search state: the mutable state of the root
// it walks. Its prefix and per-depth buffers are scratch it reuses for
// every root the worker takes; its candidates accumulate over those
// roots.
type rootState struct {
	s      *solver
	prefix []int
	// bounds and refs hold every depth's child bounds and ordering
	// buffer back to back: depth d's start at s.offsets[d].
	bounds []float64
	refs   []childRef
	// cands holds the candidates of the roots already finished here, cut
	// to the poolKeep best, then from rootStart on those of the root it
	// walks.
	cands     []candidate
	rootStart int
	// rootResult is the result of the root being walked.
	rootResult
}

// rootStates is a solve's mutex-guarded free list: a root takes a
// rootState and gives it back when done, so a solve makes at most as
// many rootStates as roots run at once, and once every root is done
// the list holds them all.
type rootStates struct {
	s    *solver
	mu   sync.Mutex
	free []*rootState
}

type childRef struct {
	v     int
	bound float64
}

// Minimize implements Strategy. The returned Result carries the
// certificate and pool (Result.Certificate()/Result.PoolEntries()).
func (e Exact) Minimize(p Problem, opt Options) (Result, error) {
	s, err := e.newSolver(p, opt)
	if err != nil {
		return Result{}, err
	}
	depth, roots := s.split()
	return s.solve(depth, roots, opt.Parallelism)
}

// solve walks the tree cut at depth into its roots subtree roots on up
// to parallelism workers, and merges their results.
func (s *solver) solve(depth, roots, parallelism int) (Result, error) {
	outs := make([]rootResult, roots)
	ws := s.rootStates(min(search.Workers(parallelism), roots))
	ferr := search.ForEach(roots, parallelism, func(r int) error {
		rs := ws.get()
		defer ws.put(rs)
		rs.begin(r * (s.size / roots))
		var err error
		if depth == len(s.levels) {
			// Degenerate split: each root is a single leaf.
			err = s.visitLeaf(rs, s.leafBound(rs))
		} else {
			err = s.expand(rs, depth)
		}
		outs[r] = rs.finish()
		return err
	})
	if ferr != nil {
		return Result{}, ferr
	}
	return s.merge(outs, ws.free), nil
}

// newSolver validates p and builds the solve's shared state, dive
// incumbent included.
func (e Exact) newSolver(p Problem, opt Options) (*solver, error) {
	sp, sh, err := productSpace("exact", p)
	if err != nil {
		return nil, err
	}
	if sh.size == 0 {
		return nil, fmt.Errorf("strategy: exact: space size overflows")
	}
	s := &solver{shape: sh, p: sp, budget: -1, offsets: make([]int, len(sh.levels)+1)}
	for d, n := range sh.levels {
		s.offsets[d+1] = s.offsets[d] + n
	}
	if b, ok := p.(Bounded); ok {
		s.b = b
	}
	if !e.Prove {
		s.budget = opt.budget()
	}
	if e.PoolSize > 0 {
		s.poolSize = e.PoolSize
		s.gap = e.PoolGap
		if s.gap <= 0 {
			s.gap = DefaultPoolGap
		}
		s.poolCap = max(4*e.PoolSize, 64)
		// selectPool keeps at most PoolSize states and skips a
		// candidate only when it is within L1 distance 1 (minDiversity
		// is 2) of a kept one. A state has at most min(2, levels-1) such
		// neighbours per dimension, so the sweep never examines more
		// than PoolSize*(1+neighbours) candidates: those best ones, by
		// (energy, ordinal), decide the pool.
		neighbours := 0
		for _, n := range sh.levels {
			neighbours += min(2, n-1)
		}
		s.poolKeep = e.PoolSize * (1 + neighbours)
	}
	if err := s.dive(); err != nil {
		return nil, err
	}
	return s, nil
}

// split is where the tree is cut into independent roots: the smallest
// depth whose prefix count reaches rootTarget (a pure function of the
// space shape).
func (s *solver) split() (depth, roots int) {
	roots = 1
	target := min(rootTarget, s.size)
	for depth < len(s.levels) && roots < target {
		roots *= s.levels[depth]
		depth++
	}
	return depth, roots
}

// dive establishes the shared initial incumbent: a single greedy descent
// taking the minimum-bound child at every level (ties to the lowest
// index; index 0 throughout when the problem is unbounded).
func (s *solver) dive() error {
	state := make([]int, len(s.levels))
	var out []float64
	if s.b != nil {
		out = make([]float64, slices.Max(s.levels))
	}
	for d, n := range s.levels {
		bestV := 0
		if s.b != nil && n > 1 {
			s.b.ChildBounds(state, d, out[:n])
			bestBd := math.Inf(1)
			for v, bd := range out[:n] {
				if bd < bestBd {
					bestBd, bestV = bd, v
				}
			}
		}
		state[d] = bestV
	}
	e, err := s.p.Energy(state)
	if err != nil {
		return err
	}
	s.diveE = sanitize(e)
	s.diveOrd, _ = s.ordinal(state)
	return nil
}

// rootStates returns an empty free list for a solve running n roots at
// once.
func (s *solver) rootStates(n int) *rootStates {
	return &rootStates{s: s, free: make([]*rootState, 0, n)}
}

// get takes a free rootState, or makes one when none is free.
func (ws *rootStates) get() *rootState {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if n := len(ws.free); n > 0 {
		rs := ws.free[n-1]
		ws.free = ws.free[:n-1]
		return rs
	}
	return ws.s.newRootState()
}

// put gives rs back once its root is finished.
func (ws *rootStates) put(rs *rootState) {
	ws.mu.Lock()
	ws.free = append(ws.free, rs)
	ws.mu.Unlock()
}

func (s *solver) newRootState() *rootState {
	total := s.offsets[len(s.levels)]
	rs := &rootState{
		s:      s,
		prefix: make([]int, len(s.levels)),
		bounds: make([]float64, total),
		refs:   make([]childRef, total),
	}
	if s.poolSize > 0 {
		// Kept candidates stay at most 2*poolKeep between roots, and a
		// root's own at most 2*poolCap+1 (see addCandidate).
		rs.cands = make([]candidate, 0, 2*s.poolKeep+2*s.poolCap+1)
	}
	return rs
}

// begin starts the walk of the root whose first state has ordinal
// first: the root's prefix is that ordinal's digits.
func (rs *rootState) begin(first int) {
	s := rs.s
	rs.rootResult = rootResult{bestE: s.diveE, bestOrd: s.diveOrd, budget: s.budget, frontier: math.Inf(1)}
	rs.rootStart = len(rs.cands)
	s.unflatten(rs.prefix, first)
}

// finish ends the root's walk and returns its result. The root's
// candidates join those kept from earlier roots, all cut to the
// poolKeep best once they pass twice that: a candidate cut has poolKeep
// better ones that stay, so it is not among the poolKeep best of the
// solve.
func (rs *rootState) finish() rootResult {
	if len(rs.cands) > 2*rs.s.poolKeep {
		sortCandidates(rs.cands)
		rs.cands = rs.cands[:rs.s.poolKeep]
	}
	return rs.rootResult
}

// children returns depth d's child-bound buffer and its empty ordering
// buffer.
func (rs *rootState) children(d int) ([]float64, []childRef) {
	lo, hi := rs.s.offsets[d], rs.s.offsets[d+1]
	return rs.bounds[lo:hi], rs.refs[lo:lo:hi]
}

// thresh is the pruning threshold: the incumbent, widened by the pool
// gap so provably-good alternates stay explorable. Pruning is strict
// (bound > thresh), so every state tying the optimum is still evaluated
// and the (energy, ordinal) winner matches exhaustive enumeration.
func (rs *rootState) thresh() float64 {
	if rs.s.gap <= 0 {
		return rs.bestE
	}
	return rs.bestE + rs.s.gap*math.Abs(rs.bestE)
}

// leafBound bounds the root's own single-leaf subtree (used only for
// the degenerate single-leaf-root split): the last dimension's child
// bound of the leaf's parent, unsanitized.
func (s *solver) leafBound(rs *rootState) float64 {
	if s.b == nil {
		return math.Inf(-1)
	}
	last := len(s.levels) - 1
	out, _ := rs.children(last)
	s.b.ChildBounds(rs.prefix, last, out)
	return out[rs.prefix[last]]
}

// expand enumerates dimension `fixed` of the node prefix[:fixed],
// bounding every child in one ChildBounds call, then visiting them in
// (bound, index) order so the most promising subtree tightens the
// incumbent first. Only the survivors, children at or under the
// threshold on entry, are sorted: the rest would come after every
// survivor in that order, and there the sorted loop prunes them all at
// once (the threshold never loosens) or, once the budget ran out,
// prices them into the frontier, which depends on no order.
func (s *solver) expand(rs *rootState, fixed int) error {
	bounds, ch := rs.children(fixed)
	if s.b != nil {
		s.b.ChildBounds(rs.prefix, fixed, bounds)
		for v, bd := range bounds {
			if math.IsNaN(bd) {
				bounds[v] = math.Inf(-1)
			}
		}
	} else {
		for v := range bounds {
			bounds[v] = math.Inf(-1)
		}
	}
	t := rs.thresh()
	rest, restMin := 0, math.Inf(1)
	for v, bd := range bounds {
		if bd <= t {
			ch = append(ch, childRef{v: v, bound: bd})
			continue
		}
		rest++
		// Strict, in index order: the first of equal bounds wins, as
		// it would in (bound, index) order.
		if bd < restMin {
			restMin = bd
		}
	}
	done, err := s.visitChildren(rs, fixed, ch, rest)
	if err != nil || done || rest == 0 {
		return err
	}
	switch {
	case rs.trunc || rs.budget == 0:
		rs.trunc = true
		if restMin < rs.frontier {
			rs.frontier = restMin
		}
	case restMin > rs.thresh():
		rs.pruned += rest * s.strides[fixed]
	default:
		// The threshold no longer prunes the smallest of the rest: it
		// loosened since entry (a pool gap of 1 or more over negative
		// energies) or is NaN. Sort and walk the rest exactly as the
		// full sort would have.
		ch = ch[:0]
		for v, bd := range bounds {
			if !(bd <= t) {
				ch = append(ch, childRef{v: v, bound: bd})
			}
		}
		_, err = s.visitChildren(rs, fixed, ch, 0)
	}
	return err
}

// visitChildren visits the children ch of the node prefix[:fixed] in
// (bound, index) order; after stops more unsorted children follow
// them. done reports that the walk ended early by pruning every child
// left, those after included.
func (s *solver) visitChildren(rs *rootState, fixed int, ch []childRef, after int) (done bool, err error) {
	// Bounds are never NaN here, so (bound, index) is a strict total
	// order and the sorted permutation is unique.
	slices.SortFunc(ch, func(a, b childRef) int {
		return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.v, b.v))
	})
	below := s.strides[fixed]
	for i, c := range ch {
		if rs.trunc || rs.budget == 0 {
			// Out of budget: everything left becomes the unexplored
			// frontier, priced by its admissible bound.
			rs.trunc = true
			if c.bound < rs.frontier {
				rs.frontier = c.bound
			}
			continue
		}
		if c.bound > rs.thresh() {
			// Children are bound-sorted and the threshold only ever
			// tightens: every remaining sibling prunes too.
			rs.pruned += (len(ch) - i + after) * below
			return true, nil
		}
		rs.prefix[fixed] = c.v
		var err error
		if fixed+1 == len(s.levels) {
			err = s.visitLeaf(rs, c.bound)
		} else {
			err = s.expand(rs, fixed+1)
		}
		if err != nil {
			return false, err
		}
	}
	return false, nil
}

// visitLeaf evaluates the complete state in prefix.
func (s *solver) visitLeaf(rs *rootState, bound float64) error {
	if rs.trunc || rs.budget == 0 {
		rs.trunc = true
		if bound < rs.frontier {
			rs.frontier = bound
		}
		return nil
	}
	if bound > rs.thresh() {
		rs.pruned++
		return nil
	}
	e, err := s.p.Energy(rs.prefix)
	if err != nil {
		return err
	}
	e = sanitize(e)
	rs.evals++
	if rs.budget > 0 {
		rs.budget--
	}
	ord, _ := s.ordinal(rs.prefix)
	if e < rs.bestE || (e == rs.bestE && ord < rs.bestOrd) {
		rs.bestE, rs.bestOrd = e, ord
	}
	if s.poolSize > 0 && e <= rs.thresh() {
		rs.addCandidate(e, ord)
	}
	return nil
}

// addCandidate adds a candidate of the root being walked; the root's
// candidates are cut to the poolCap best once they pass twice that.
func (rs *rootState) addCandidate(e float64, ord int) {
	rs.cands = append(rs.cands, candidate{e: e, ord: ord})
	if root := rs.cands[rs.rootStart:]; len(root) > 2*rs.s.poolCap {
		sortCandidates(root)
		rs.cands = rs.cands[:rs.rootStart+rs.s.poolCap]
	}
}

// sortCandidates orders candidates by (energy, ordinal). Energies are
// sanitized and ordinals unique, so the order is a strict total one.
func sortCandidates(cs []candidate) {
	slices.SortFunc(cs, func(a, b candidate) int {
		return cmp.Or(cmp.Compare(a.e, b.e), cmp.Compare(a.ord, b.ord))
	})
}

// merge folds the per-root results, in root order, and the rootStates'
// kept candidates into the final Result with its certificate and
// diversity-filtered pool.
func (s *solver) merge(outs []rootResult, ws []*rootState) Result {
	res := Result{
		BestEnergy:  s.diveE,
		Evaluations: 1, // the dive
		Workers:     1,
	}
	var cert Certificate
	bestOrd := s.diveOrd
	optimal := true
	frontier := math.Inf(1)
	for _, rs := range outs {
		res.Evaluations += rs.evals
		cert.Explored += rs.evals
		cert.Pruned += rs.pruned
		if rs.trunc {
			optimal = false
			if rs.frontier < frontier {
				frontier = rs.frontier
			}
		}
		if rs.bestE < res.BestEnergy || (rs.bestE == res.BestEnergy && rs.bestOrd < bestOrd) {
			res.BestEnergy, bestOrd = rs.bestE, rs.bestOrd
		}
	}
	res.Best = make([]int, len(s.levels))
	s.unflatten(res.Best, bestOrd)
	cert.Optimal = optimal
	if optimal {
		cert.LowerBound = res.BestEnergy
	} else {
		cert.LowerBound = res.BestEnergy
		if frontier < cert.LowerBound {
			cert.LowerBound = frontier
		}
		cert.Gap = relativeGap(res.BestEnergy, cert.LowerBound)
	}
	res.Cert = &cert
	if s.poolSize > 0 {
		cands := ws[0].cands
		for _, rs := range ws[1:] {
			cands = append(cands, rs.cands...)
		}
		res.Pool = s.selectPool(cands, res.BestEnergy)
	}
	return res
}

// relativeGap is the Gurobi-style MIP gap (best-bound)/|best|.
func relativeGap(best, lb float64) float64 {
	if lb >= best {
		return 0
	}
	if best == 0 || math.IsInf(best, 1) {
		return math.Inf(1)
	}
	return (best - lb) / math.Abs(best)
}

// selectPool applies the final gap filter and the greedy diversity
// sweep: candidates in (energy, ordinal) order are kept only when at
// least minDiversity away (L1 index distance) from everything already
// kept, so the pool spans genuinely different assignments. Each
// examined candidate's state is rebuilt in the next entry's slot of one
// backing array, each slot capped at its own length.
func (s *solver) selectPool(cands []candidate, bestE float64) []PoolEntry {
	thresh := bestE + s.gap*math.Abs(bestE)
	sortCandidates(cands)
	dim := len(s.levels)
	states := make([]int, s.poolSize*dim)
	pool := make([]PoolEntry, 0, s.poolSize)
	for _, c := range cands {
		if len(pool) == s.poolSize || c.e > thresh {
			break
		}
		lo := len(pool) * dim
		state := states[lo : lo+dim : lo+dim]
		s.unflatten(state, c.ord)
		if !slices.ContainsFunc(pool, func(k PoolEntry) bool { return l1(state, k.State) < minDiversity }) {
			pool = append(pool, PoolEntry{State: state, Energy: c.e})
		}
	}
	return pool
}

// l1 is the L1 distance between two index vectors.
func l1(a, b []int) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += a[i] - b[i]
		} else {
			d += b[i] - a[i]
		}
	}
	return d
}
