package strategy

import (
	"reflect"
	"sync"
	"testing"
)

// TestMinimizeDeterministicAcrossParallelism is the layer's core
// contract: for a fixed (Strategy, Options) the Result is bit-identical
// at p in {1, 4, 8}, for every strategy, with and without restarts.
func TestMinimizeDeterministicAcrossParallelism(t *testing.T) {
	cases := []struct {
		name string
		s    Strategy
		opt  Options
	}{
		{"anneal", DefaultAnneal(), Options{Budget: 200, Seed: 5}},
		{"anneal-restarts", DefaultAnneal(), Options{Budget: 150, Seed: 5, Restarts: 4}},
		{"exhaustive", Exhaustive{}, Options{}},
		{"genetic", Genetic{}, Options{Budget: 300, Seed: 5, Restarts: 4}},
		{"tabu", Tabu{}, Options{Budget: 300, Seed: 5, Restarts: 4}},
		{"local", Local{}, Options{Budget: 300, Seed: 5, Restarts: 4}},
		{"random", Random{}, Options{Budget: 300, Seed: 5, Restarts: 4}},
		{"portfolio", DefaultPortfolio(), Options{Budget: 200, Seed: 5, Restarts: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want Result
			for i, p := range []int{1, 4, 8} {
				opt := tc.opt
				opt.Parallelism = p
				res, err := tc.s.Minimize(newBowl(), opt)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want = res
					continue
				}
				if !reflect.DeepEqual(want, res) {
					t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, res)
				}
			}
		})
	}
}

// distinctBowl is a bowl that records every distinct state evaluated.
type distinctBowl struct {
	*bowl
	seen sync.Map
}

func (b *distinctBowl) Energy(state []int) (float64, error) {
	b.seen.Store([3]int(state), true)
	return b.bowl.Energy(state)
}

// TestPortfolioSharesCache is the racing portfolio's accounting
// contract: across members the shared memo publishes each distinct
// state once (Unique equals the distinct states the problem saw), a
// state is evaluated again only by a member that raced another on it
// (the problem-side counter is at least Unique), members overlap
// (Hits > 0), and the books balance. Run under -race this is also the
// shared-cache concurrency test: members race on 8 workers.
func TestPortfolioSharesCache(t *testing.T) {
	b := &distinctBowl{bowl: newBowl()}
	res, err := DefaultPortfolio().Race(b, Options{Budget: 300, Seed: 2, Restarts: 2, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	distinct := 0
	b.seen.Range(func(any, any) bool { distinct++; return true })
	if distinct != res.Unique {
		t.Fatalf("problem saw %d distinct states, memo published %d", distinct, res.Unique)
	}
	if paid := int(b.evals.Load()); paid < res.Unique {
		t.Fatalf("problem saw %d evaluations, fewer than the %d the memo published", paid, res.Unique)
	}
	if res.Hits <= 0 {
		t.Fatalf("no cache hits across members on a 12^3 space (lookups %d, unique %d)", res.Lookups, res.Unique)
	}
	if res.Lookups != res.Unique+res.Hits {
		t.Fatalf("accounting broken: %d lookups != %d unique + %d hits", res.Lookups, res.Unique, res.Hits)
	}
	if res.Unique > 12*12*12 {
		t.Fatalf("paid %d evaluations on a space of %d states", res.Unique, 12*12*12)
	}
}

// TestPortfolioNeverWorseThanMembers: every member races with the same
// seed and budget it gets standalone, so the portfolio's best is a min
// over standalone member results.
func TestPortfolioNeverWorseThanMembers(t *testing.T) {
	pf := DefaultPortfolio()
	opt := Options{Budget: 150, Seed: 9, Restarts: 2, Parallelism: 4}
	res, err := pf.Race(newBowl(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range pf.Members {
		standalone, err := m.Minimize(newBowl(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.PerMember[i].BestEnergy != standalone.BestEnergy {
			t.Errorf("member %s diverged inside the race: %g vs %g standalone",
				m.Name(), res.PerMember[i].BestEnergy, standalone.BestEnergy)
		}
		if res.BestEnergy > standalone.BestEnergy {
			t.Errorf("portfolio best %g worse than member %s standalone (%g)",
				res.BestEnergy, m.Name(), standalone.BestEnergy)
		}
	}
	if res.MemberNames[res.Worker] != pf.Members[res.Worker].Name() {
		t.Errorf("winner bookkeeping inconsistent: %v", res.MemberNames)
	}
}
