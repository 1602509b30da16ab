package strategy

import (
	"math/rand"
	"testing"
)

// newTable is a tableProblem over levels with energies drawn from seed:
// its Energy and ChildBounds allocate nothing, so a solve's allocations
// are the solver's own.
func newTable(levels []int, seed int64) *tableProblem {
	_, sh, err := productSpace("test", &tableProblem{sh: shape{levels: levels}})
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	p := &tableProblem{sh: sh, e: make([]float64, sh.size), slack: 5}
	for i := range p.e {
		p.e[i] = float64(rng.Intn(61) - 10)
	}
	return p
}

// TestExactAllocsIndependentOfRoots: a proof allocates per run, not per
// subtree root or pool candidate. The same bounded problem, cut into its
// 16 roots or into 64, allocates the same, although the finer cut walks
// more nodes and collects different candidates.
func TestExactAllocsIndependentOfRoots(t *testing.T) {
	p := newTable([]int{4, 4, 4, 4, 4}, 3)
	ex := Exact{Prove: true, PoolSize: 8}
	solve := func(depth, wantRoots int) (float64, Result) {
		var res Result
		allocs := testing.AllocsPerRun(20, func() {
			s, err := ex.newSolver(p, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			roots := s.size / s.strides[depth-1]
			if roots != wantRoots {
				t.Fatalf("depth %d cuts %d roots, want %d", depth, roots, wantRoots)
			}
			if res, err = s.solve(depth, roots, 1); err != nil {
				t.Fatal(err)
			}
		})
		if c, ok := res.Certificate(); !ok || !c.Optimal || len(res.Pool) == 0 {
			t.Fatalf("depth %d: no proven pool: %+v", depth, res)
		}
		return allocs, res
	}
	s, err := ex.newSolver(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if depth, roots := s.split(); depth != 2 || roots != 16 {
		t.Fatalf("split = (%d, %d), want (2, 16)", depth, roots)
	}
	at16, r16 := solve(2, 16)
	at64, r64 := solve(3, 64)
	if r16.Cert.Explored == r64.Cert.Explored {
		t.Fatalf("both cuts explored %d states: the finer cut should walk differently", r16.Cert.Explored)
	}
	if at16 != at64 {
		t.Fatalf("16 roots allocate %g, 64 roots %g: want the same", at16, at64)
	}
}

// TestGeneticAllocsIndependentOfBudget: a Genetic restart allocates per
// run, not per child or generation: budget 5,000 allocates what 500 do.
func TestGeneticAllocsIndependentOfBudget(t *testing.T) {
	p := newBowl()
	allocs := func(budget int) float64 {
		return testing.AllocsPerRun(10, func() {
			res, err := Genetic{}.Minimize(p, Options{Budget: budget, Seed: 5, Parallelism: 1})
			if err != nil || res.Evaluations != budget {
				t.Fatalf("budget %d: %d evaluations, err %v", budget, res.Evaluations, err)
			}
		})
	}
	if short, long := allocs(500), allocs(5000); short != long {
		t.Fatalf("budget 500 allocates %g, budget 5000 %g: want the same", short, long)
	}
}
