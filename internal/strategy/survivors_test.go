package strategy

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// fullSortExpand is expand as the solver ran it before it sorted only
// the survivors: every child bounded, all of them sorted by (bound,
// index) and walked in that order.
func (s *solver) fullSortExpand(rs *rootState, fixed int) error {
	bounds, ch := rs.children(fixed)
	if s.b != nil {
		s.b.ChildBounds(rs.prefix, fixed, bounds)
	}
	for v, bd := range bounds {
		if s.b == nil || math.IsNaN(bd) {
			bd = math.Inf(-1)
		}
		ch = append(ch, childRef{v: v, bound: bd})
	}
	slices.SortFunc(ch, func(a, b childRef) int {
		return cmp.Or(cmp.Compare(a.bound, b.bound), cmp.Compare(a.v, b.v))
	})
	below := s.strides[fixed]
	for i, c := range ch {
		if rs.trunc || rs.budget == 0 {
			rs.trunc = true
			if c.bound < rs.frontier {
				rs.frontier = c.bound
			}
			continue
		}
		if c.bound > rs.thresh() {
			rs.pruned += (len(ch) - i) * below
			break
		}
		rs.prefix[fixed] = c.v
		var err error
		if fixed+1 == len(s.levels) {
			err = s.visitLeaf(rs, c.bound)
		} else {
			err = s.fullSortExpand(rs, fixed+1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tableProblem has arbitrary energies, one per state ordinal, so a
// greedy dive is rarely optimal and the incumbent keeps improving
// during the walk. Its bound is the subtree's true minimum less a
// pseudo-random slack (admissible, but neither exact nor monotone).
type tableProblem struct {
	sh    shape
	e     []float64
	slack float64
}

func (p *tableProblem) Dim() int                              { return len(p.sh.levels) }
func (p *tableProblem) Levels(i int) int                      { return p.sh.levels[i] }
func (p *tableProblem) Initial(dst []int, _ *rand.Rand)       { clear(dst) }
func (p *tableProblem) Neighbor(dst, src []int, _ *rand.Rand) { copy(dst, src) }
func (p *tableProblem) Energy(state []int) (float64, error) {
	ord, _ := p.sh.ordinal(state)
	return p.e[ord], nil
}

func (p *tableProblem) ChildBounds(prefix []int, fixed int, out []float64) {
	lo := 0
	for d := 0; d < fixed; d++ {
		lo += prefix[d] * p.sh.strides[d]
	}
	stride := p.sh.strides[fixed]
	for v := range out {
		from := lo + v*stride
		m := slices.Min(p.e[from : from+stride])
		// A deterministic slack in [0, p.slack) per subtree.
		h := uint64(from*7919+stride) * 0x9E3779B97F4A7C15
		out[v] = m - p.slack*float64(h>>40)/float64(1<<24)
	}
}

func genTable(rng *rand.Rand) *tableProblem {
	dim := 1 + rng.Intn(4)
	levels := make([]int, dim)
	for i := range levels {
		levels[i] = 1 + rng.Intn(6)
	}
	_, sh, err := productSpace("test", &tableProblem{sh: shape{levels: levels}})
	if err != nil {
		panic(err)
	}
	// Mostly positive energies with a few small negative ones: a
	// negative incumbent's widened threshold then sits among the bounds
	// and moves as the incumbent improves.
	p := &tableProblem{sh: sh, e: make([]float64, sh.size), slack: float64(rng.Intn(40))}
	for i := range p.e {
		p.e[i] = float64(rng.Intn(61) - 10)
	}
	return p
}

// rootFingerprint renders everything the walk of rs's current root
// decides. A candidate's ordinal determines its state, so the ordinal
// stands for both.
func rootFingerprint(rs *rootState) string {
	root := rs.cands[rs.rootStart:]
	pool := make([]string, len(root))
	for i, c := range root {
		pool[i] = fmt.Sprintf("%x/%d", math.Float64bits(c.e), c.ord)
	}
	return fmt.Sprintf("best %x/%d evals %d pruned %d budget %d trunc %v frontier %x pool %v",
		math.Float64bits(rs.bestE), rs.bestOrd, rs.evals, rs.pruned, rs.budget, rs.trunc,
		math.Float64bits(rs.frontier), pool)
}

// TestSurvivorOrderingMatchesFullSort: on generated problems with
// energies of both signs — separable ones under a derated bound, and
// arbitrary energy tables under slack bounds, where the incumbent keeps
// improving — with pools whose gaps run from 0.1 up to 4 (which lets
// the threshold loosen as a negative incumbent improves) and budgets
// from 1 to unlimited, every root's walk — incumbent, evaluations,
// pruned count, budget, truncation, frontier and pool candidates — is
// exactly the full sort's.
func TestSurvivorOrderingMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for inst := 0; inst < 600; inst++ {
		var p Problem
		switch rng.Intn(3) {
		case 0:
			q := genQuad(rng)
			q.base = float64(rng.Intn(41)) - 30
			p = looseQuad{boundedQuad{q}}
		default:
			p = genTable(rng)
		}
		ex := Exact{Prove: rng.Intn(3) == 0}
		if rng.Intn(3) > 0 {
			ex.PoolSize = 1 + rng.Intn(6)
			ex.PoolGap = []float64{0.1, 0.5, 1, 1.5, 2, 4}[rng.Intn(6)]
		}
		opt := Options{Budget: []int{1, 2, 3, 5, 10, 40}[rng.Intn(6)]}
		s, err := ex.newSolver(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		depth, roots := s.split()
		if depth == len(s.levels) {
			continue
		}
		for r := 0; r < roots; r++ {
			got, want := s.newRootState(), s.newRootState()
			got.begin(r * (s.size / roots))
			want.begin(r * (s.size / roots))
			if err := s.expand(got, depth); err != nil {
				t.Fatal(err)
			}
			if err := s.fullSortExpand(want, depth); err != nil {
				t.Fatal(err)
			}
			if g, w := rootFingerprint(got), rootFingerprint(want); g != w {
				t.Fatalf("instance %d (%+v, %T) root %d:\n got %s\nwant %s", inst, ex, p, r, g, w)
			}
		}
		full, err := ex.Minimize(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ex.Minimize(p, Options{Budget: opt.Budget, Parallelism: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(full, again) {
			t.Fatalf("instance %d: parallelism changed the result", inst)
		}
	}
}

// TestPoolKeepCutMatchesFullPool: a rootState keeps only the poolKeep
// best candidates of the roots it finished, since selectPool never
// examines more. On generated problems whose wide pool gaps admit many
// candidates, the Result equals a solve that keeps every root's
// candidates, at Parallelism 1 and 3, and the cut really happens.
func TestPoolKeepCutMatchesFullPool(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cuts := 0
	for inst := 0; inst < 400; inst++ {
		p := genTable(rng)
		ex := Exact{
			Prove:    rng.Intn(2) == 0,
			PoolSize: 1 + rng.Intn(6),
			PoolGap:  []float64{0.5, 1, 2, 4}[rng.Intn(4)],
		}
		opt := Options{Budget: []int{3, 10, 40}[rng.Intn(3)]}
		s, err := ex.newSolver(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		depth, roots := s.split()
		if depth < len(s.levels) {
			rs := s.newRootState()
			for r := 0; r < roots; r++ {
				rs.begin(r * (s.size / roots))
				if err := s.expand(rs, depth); err != nil {
					t.Fatal(err)
				}
				if len(rs.cands) > 2*s.poolKeep {
					cuts++
				}
				rs.finish()
			}
		}
		for _, par := range []int{1, 3} {
			got, err := s.solve(depth, roots, par)
			if err != nil {
				t.Fatal(err)
			}
			full, err := ex.newSolver(p, opt)
			if err != nil {
				t.Fatal(err)
			}
			// No rootState holds more candidates than there are states.
			full.poolKeep = full.size
			want, err := full.solve(depth, roots, par)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("instance %d (%+v, levels %v) p%d:\n got %+v\nwant %+v", inst, ex, s.levels, par, got.Pool, want.Pool)
			}
		}
	}
	if cuts < 50 {
		t.Fatalf("only %d roots cut their rootState's candidates; the test needs more", cuts)
	}
}
