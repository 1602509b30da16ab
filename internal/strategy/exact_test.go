package strategy

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// quadProblem is a separable toy problem with a known optimum and an
// admissible (in fact exact over free dimensions) lower bound:
// Energy = sum_i w[i]*(state[i]-target[i])^2 + base.
type quadProblem struct {
	levels []int
	target []int
	w      []float64
	base   float64
}

func (p *quadProblem) Dim() int                              { return len(p.levels) }
func (p *quadProblem) Levels(i int) int                      { return p.levels[i] }
func (p *quadProblem) Initial(dst []int, _ *rand.Rand)       { clear(dst) }
func (p *quadProblem) Neighbor(dst, src []int, _ *rand.Rand) { copy(dst, src) }
func (p *quadProblem) term(i, v int) float64 {
	d := float64(v - p.target[i])
	return p.w[i] * d * d
}
func (p *quadProblem) Energy(state []int) (float64, error) {
	e := p.base
	for i, v := range state {
		e += p.term(i, v)
	}
	return e, nil
}

// boundedQuad adds the admissible bound: fixed terms exactly, free
// terms at their per-dimension minimum (0 when the target is in range).
type boundedQuad struct{ *quadProblem }

func (p boundedQuad) ChildBounds(prefix []int, fixed int, out []float64) {
	childBoundsOf(p.nodeBound, prefix, fixed, out)
}

// childBoundsOf fills out from a per-node bound, one child at a time,
// on a copy of the prefix.
func childBoundsOf(lb func(prefix []int, fixed int) float64, prefix []int, fixed int, out []float64) {
	node := append([]int(nil), prefix[:fixed]...)
	for v := range out {
		out[v] = lb(append(node, v), fixed+1)
	}
}

func (p boundedQuad) nodeBound(prefix []int, fixed int) float64 {
	e := p.base
	for i := 0; i < fixed; i++ {
		e += p.term(i, prefix[i])
	}
	for i := fixed; i < len(p.levels); i++ {
		min := math.Inf(1)
		for v := 0; v < p.levels[i]; v++ {
			if t := p.term(i, v); t < min {
				min = t
			}
		}
		e += min
	}
	return e
}

func newQuad() *quadProblem {
	return &quadProblem{
		levels: []int{5, 3, 7, 4},
		target: []int{3, 1, 2, 0},
		w:      []float64{2, 5, 1, 3},
		base:   0.25,
	}
}

// genQuad draws a separable problem: 1-4 dimensions of 1-6 levels,
// small integer weights (zeros included, so energy ties are common and
// the ordinal tie-break is exercised) and targets that may lie outside
// the level range (so a free dimension's minimum term is not always 0).
func genQuad(rng *rand.Rand) *quadProblem {
	dim := 1 + rng.Intn(4)
	p := &quadProblem{
		levels: make([]int, dim),
		target: make([]int, dim),
		w:      make([]float64, dim),
		base:   float64(rng.Intn(9)) - 4,
	}
	for i := range p.levels {
		p.levels[i] = 1 + rng.Intn(6)
		p.target[i] = rng.Intn(p.levels[i]+2) - 1
		p.w[i] = float64(rng.Intn(4))
	}
	return p
}

func quadSize(p Spaced) int {
	_, sh, err := productSpace("test", p)
	if err != nil {
		panic(err)
	}
	return sh.size
}

// bruteForce enumerates the whole space, breaking energy ties by the
// lowest ordinal — the reference the solver must match exactly.
func bruteForce(t *testing.T, p Spaced) ([]int, float64) {
	t.Helper()
	dim := p.Dim()
	state := make([]int, dim)
	best := append([]int(nil), state...)
	bestE := math.Inf(1)
	var rec func(d int)
	rec = func(d int) {
		if d == dim {
			e, err := p.Energy(state)
			if err != nil {
				t.Fatal(err)
			}
			if e < bestE {
				bestE = e
				copy(best, state)
			}
			return
		}
		for v := 0; v < p.Levels(d); v++ {
			state[d] = v
			rec(d + 1)
		}
		state[d] = 0
	}
	rec(0)
	return best, bestE
}

// checkProof asserts that a proven Exact run on p agrees with brute
// force and Exhaustive and that its certificate and pool are sound.
func checkProof(t *testing.T, name string, p Spaced, ex Exact) Certificate {
	t.Helper()
	wantState, wantE := bruteForce(t, p)
	res, err := ex.Minimize(p, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.BestEnergy != wantE || !reflect.DeepEqual(res.Best, wantState) {
		t.Fatalf("%s: exact = %v (%g), brute force = %v (%g)", name, res.Best, res.BestEnergy, wantState, wantE)
	}
	enum, err := Exhaustive{}.Minimize(p, Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if enum.BestEnergy != res.BestEnergy || !reflect.DeepEqual(enum.Best, res.Best) {
		t.Fatalf("%s: exact = %v (%g), exhaustive = %v (%g)", name, res.Best, res.BestEnergy, enum.Best, enum.BestEnergy)
	}
	c, ok := res.Certificate()
	if !ok || !c.Optimal || c.Gap != 0 || c.LowerBound != wantE {
		t.Fatalf("%s: certificate not optimal: %+v", name, c)
	}
	if size := quadSize(p); c.Explored+c.Pruned != size {
		t.Fatalf("%s: Explored+Pruned = %d+%d, want space size %d", name, c.Explored, c.Pruned, size)
	}
	if ex.PoolSize > 0 {
		if len(res.Pool) == 0 || !reflect.DeepEqual(res.Pool[0].State, res.Best) || res.Pool[0].Energy != res.BestEnergy {
			t.Fatalf("%s: pool %+v does not start with the optimum %v (%g)", name, res.Pool, res.Best, res.BestEnergy)
		}
	} else if res.Pool != nil {
		t.Fatalf("%s: pool %+v collected without PoolSize", name, res.Pool)
	}
	return c
}

// checkTruncated asserts that an Exact run cut short by opt.Budget
// never lies against brute force: a certificate claiming Optimal holds
// the true optimum, LowerBound never exceeds it and Gap is never
// negative.
func checkTruncated(t *testing.T, name string, p Spaced, ex Exact, opt Options) {
	t.Helper()
	wantState, wantE := bruteForce(t, p)
	res, err := ex.Minimize(p, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	c, ok := res.Certificate()
	if !ok {
		t.Fatalf("%s: no certificate", name)
	}
	if c.Optimal && (res.BestEnergy != wantE || !reflect.DeepEqual(res.Best, wantState)) {
		t.Fatalf("%s: claims optimal %v (%g), brute force = %v (%g)", name, res.Best, res.BestEnergy, wantState, wantE)
	}
	if c.LowerBound > wantE || !(c.Gap >= 0) {
		t.Fatalf("%s: LowerBound %g, Gap %g against optimum %g", name, c.LowerBound, c.Gap, wantE)
	}
}

// TestExactMatchesBruteForce checks proven solves against brute force
// and Exhaustive: first on the fixed quadratic, where pruning must be
// real, then on seeded generated separable problems, each bounded and
// unbounded, with and without a pool. The generated problems also run
// cut short by a budget of 1, a quarter and half of the space, where the
// certificate must still never claim more than brute force allows.
func TestExactMatchesBruteForce(t *testing.T) {
	c := checkProof(t, "fixed", boundedQuad{newQuad()}, Exact{Prove: true})
	if size := quadSize(boundedQuad{newQuad()}); c.Explored >= size {
		t.Fatalf("no pruning: explored %d of %d", c.Explored, size)
	}
	if c.Pruned == 0 {
		t.Fatal("expected pruned subtrees")
	}

	pruned := 0
	for seed := int64(0); seed < 200; seed++ {
		q := genQuad(rand.New(rand.NewSource(seed)))
		for _, p := range []Spaced{q, boundedQuad{q}} {
			for _, ex := range []Exact{{Prove: true}, {Prove: true, PoolSize: 3, PoolGap: 0.5}} {
				pruned += checkProof(t, fmt.Sprintf("seed %d %T %+v", seed, p, ex), p, ex).Pruned
				ex.Prove = false
				size := quadSize(p)
				for _, budget := range []int{1, max(1, size/4), max(1, size/2)} {
					checkTruncated(t, fmt.Sprintf("seed %d %T %+v budget %d", seed, p, ex, budget), p, ex, Options{Budget: budget})
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("no generated instance pruned anything; the bounded cases tested nothing")
	}
}

func TestExactUnboundedIsCertifiedExhaustive(t *testing.T) {
	p := newQuad() // no ChildBounds method
	wantState, wantE := bruteForce(t, p)
	res, err := Exact{Prove: true}.Minimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEnergy != wantE || !reflect.DeepEqual(res.Best, wantState) {
		t.Fatalf("exact = %v (%g), brute force = %v (%g)", res.Best, res.BestEnergy, wantState, wantE)
	}
	c := *res.Cert
	if !c.Optimal || c.Pruned != 0 || c.Explored != quadSize(p) {
		t.Fatalf("unbounded solve should exhaust without pruning: %+v", c)
	}
}

// TestExactTieBreakMatchesOrdinal pins the exhaustive-equivalent
// tie-break: among equal-energy optima the lowest state ordinal wins,
// regardless of the bound-driven visit order.
func TestExactTieBreakMatchesOrdinal(t *testing.T) {
	// Flat plateau: every state has the same energy.
	p := &quadProblem{levels: []int{3, 3, 3}, target: []int{0, 0, 0}, w: []float64{0, 0, 0}, base: 1}
	res, err := Exact{Prove: true}.Minimize(boundedQuad{p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Best, []int{0, 0, 0}) {
		t.Fatalf("tie-break picked %v, want the lowest ordinal [0 0 0]", res.Best)
	}
	if !res.Cert.Optimal {
		t.Fatalf("plateau not proven: %+v", *res.Cert)
	}
}

func TestExactDeterminismAcrossParallelism(t *testing.T) {
	p := boundedQuad{newQuad()}
	ex := Exact{Prove: true, PoolSize: 4}
	base, err := ex.Minimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4, 8} {
		res, err := ex.Minimize(p, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, base) {
			t.Fatalf("parallelism %d: result differs\n got %+v\nwant %+v", par, res, base)
		}
	}
}

func TestExactPoolDiversityInvariant(t *testing.T) {
	// A large base widens the relative gap window so the pool has real
	// candidates to filter for diversity.
	q := newQuad()
	q.base = 10
	p := boundedQuad{q}
	res, err := Exact{Prove: true, PoolSize: 6, PoolGap: 0.9}.Minimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pool) < 2 {
		t.Fatalf("pool too small to test diversity: %d entries", len(res.Pool))
	}
	if !reflect.DeepEqual(res.Pool[0].State, res.Best) || res.Pool[0].Energy != res.BestEnergy {
		t.Fatalf("pool[0] = %+v, want the optimum %v (%g)", res.Pool[0], res.Best, res.BestEnergy)
	}
	thresh := res.BestEnergy + 0.9*math.Abs(res.BestEnergy)
	for i, a := range res.Pool {
		if a.Energy > thresh {
			t.Fatalf("pool[%d] energy %g above gap threshold %g", i, a.Energy, thresh)
		}
		if e, err := p.Energy(a.State); err != nil || e != a.Energy {
			t.Fatalf("pool[%d] energy mismatch: recorded %g, evaluated %g", i, a.Energy, e)
		}
		for j, b := range res.Pool[i+1:] {
			if d := l1(a.State, b.State); d < minDiversity {
				t.Fatalf("pool[%d] and pool[%d] only L1=%d apart, want >= %d", i, i+1+j, d, minDiversity)
			}
		}
	}
	for i := 1; i < len(res.Pool); i++ {
		if res.Pool[i].Energy < res.Pool[i-1].Energy {
			t.Fatalf("pool not sorted by energy: %g before %g", res.Pool[i-1].Energy, res.Pool[i].Energy)
		}
	}
}

// TestExactPoolStatesAreOwned: every pool entry's State is its own.
// Overwriting one, or appending to it, leaves every other entry, the
// best state and the pool of a rerun unchanged.
func TestExactPoolStatesAreOwned(t *testing.T) {
	q := newQuad()
	q.base = 10
	p := boundedQuad{q}
	ex := Exact{Prove: true, PoolSize: 6, PoolGap: 0.9}
	res, err := ex.Minimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pool) < 3 {
		t.Fatalf("pool too small to test ownership: %d entries", len(res.Pool))
	}
	want := make([]PoolEntry, len(res.Pool))
	for i, e := range res.Pool {
		want[i] = PoolEntry{State: slices.Clone(e.State), Energy: e.Energy}
	}
	best := slices.Clone(res.Best)
	for i, e := range res.Pool {
		for d := range e.State {
			e.State[d] = -1 - d
		}
		_ = append(e.State, -99)
		for j, o := range res.Pool {
			if j != i && !slices.Equal(o.State, want[j].State) {
				t.Fatalf("writing pool[%d] changed pool[%d]: %v, want %v", i, j, o.State, want[j].State)
			}
		}
		if !slices.Equal(res.Best, best) {
			t.Fatalf("writing pool[%d] changed the best state: %v, want %v", i, res.Best, best)
		}
		copy(e.State, want[i].State)
	}
	for i := range res.Best {
		res.Best[i] = -1
	}
	again, err := ex.Minimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Pool, want) || !slices.Equal(again.Best, best) {
		t.Fatalf("a rerun after the writes differs:\n got %+v %v\nwant %+v %v", again.Pool, again.Best, want, best)
	}
}

// looseQuad derates the exact separable bound by a constant factor —
// still admissible (it only underestimates) and still monotone, but
// loose enough that budget-truncated runs report genuinely positive
// gaps instead of proving the optimum from the frontier bounds alone.
type looseQuad struct{ boundedQuad }

func (p looseQuad) ChildBounds(prefix []int, fixed int, out []float64) {
	childBoundsOf(p.nodeBound, prefix, fixed, out)
}

func (p looseQuad) nodeBound(prefix []int, fixed int) float64 {
	return 0.6 * p.boundedQuad.nodeBound(prefix, fixed)
}

// TestExactBudgetGapMonotonicity: growing the budget extends the same
// deterministic traversal, so the incumbent never worsens, the frontier
// bound never loosens, and the certified gap never grows.
func TestExactBudgetGapMonotonicity(t *testing.T) {
	// A larger space so small budgets genuinely truncate.
	p := looseQuad{boundedQuad{&quadProblem{
		levels: []int{6, 5, 7, 4, 5},
		target: []int{4, 2, 5, 1, 3},
		w:      []float64{2, 5, 1, 3, 4},
		// A base large relative to the per-step deviation cost, so the
		// derated frontier bounds genuinely undercut the incumbent.
		base: 10,
	}}}
	prevGap := math.Inf(1)
	prevE := math.Inf(1)
	prevLB := math.Inf(-1)
	positiveGapSeen := false
	for _, budget := range []int{1, 2, 5, 10, 25, 100, 100000} {
		res, err := Exact{}.Minimize(p, Options{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		c := *res.Cert
		if !c.Optimal && c.Gap > 0 {
			positiveGapSeen = true
		}
		if res.BestEnergy > prevE {
			t.Fatalf("budget %d: incumbent worsened %g -> %g", budget, prevE, res.BestEnergy)
		}
		if c.LowerBound < prevLB {
			t.Fatalf("budget %d: lower bound loosened %g -> %g", budget, prevLB, c.LowerBound)
		}
		if c.Gap > prevGap {
			t.Fatalf("budget %d: gap grew %g -> %g", budget, prevGap, c.Gap)
		}
		if c.LowerBound > res.BestEnergy {
			t.Fatalf("budget %d: lower bound %g above incumbent %g", budget, c.LowerBound, res.BestEnergy)
		}
		prevGap, prevE, prevLB = c.Gap, res.BestEnergy, c.LowerBound
	}
	if !positiveGapSeen {
		t.Fatal("no budget produced a positive gap; the monotonicity sweep tested nothing")
	}
	// The generous budget must prove optimality with a zero gap.
	if prevGap != 0 {
		t.Fatalf("final gap %g, want proven 0", prevGap)
	}
}

func TestExactPruningSoundUnderPoolGap(t *testing.T) {
	p := boundedQuad{newQuad()}
	_, wantE := bruteForce(t, p)
	res, err := Exact{Prove: true, PoolSize: 8, PoolGap: 0.5}.Minimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BestEnergy != wantE {
		t.Fatalf("pool-widened solve lost the optimum: %g, want %g", res.BestEnergy, wantE)
	}
}

func TestExactValidation(t *testing.T) {
	if _, err := (Exact{}).Minimize(&quadProblem{}, Options{}); err == nil {
		t.Fatal("zero-dimension problem accepted")
	}
	if _, err := (Exact{}).Minimize(&quadProblem{levels: []int{3, 0}, target: []int{0, 0}, w: []float64{1, 1}}, Options{}); err == nil {
		t.Fatal("zero-level dimension accepted")
	}
}
