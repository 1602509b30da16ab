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

// rootFingerprint renders everything a root's walk decides.
func rootFingerprint(rs *rootState) string {
	pool := make([]string, len(rs.pool))
	for i, c := range rs.pool {
		pool[i] = fmt.Sprintf("%x/%d/%v", math.Float64bits(c.e), c.ord, c.state)
	}
	return fmt.Sprintf("best %x/%d/%v evals %d pruned %d budget %d trunc %v frontier %x pool %v",
		math.Float64bits(rs.bestE), rs.bestOrd, rs.best, rs.evals, rs.pruned, rs.budget, rs.trunc,
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
			s.unflatten(got.prefix, r*(s.size/roots))
			s.unflatten(want.prefix, r*(s.size/roots))
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
