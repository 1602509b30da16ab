package search

import (
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMemoCachesErrors(t *testing.T) {
	m := NewMemo[string, int](hashString)
	calls := 0
	fail := func() (int, error) { calls++; return 0, fmt.Errorf("boom") }
	if _, err := m.Do("k", fail); err == nil {
		t.Fatal("want error")
	}
	if _, err := m.Do("k", fail); err == nil {
		t.Fatal("want cached error")
	}
	if calls != 1 {
		t.Fatalf("failed computation ran %d times, want 1", calls)
	}
}

func TestWorkers(t *testing.T) {
	for _, tc := range [][2]int{{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {64, 64}} {
		if got := Workers(tc[0]); got != tc[1] {
			t.Errorf("Workers(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

func TestShardsCoverRangeExactly(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{10, 3}, {1, 1}, {5, 8}, {19926, 8}, {7, 7}, {100, 1},
	} {
		shards := Shards(tc.n, tc.k)
		if len(shards) > tc.k || len(shards) == 0 {
			t.Fatalf("Shards(%d,%d) produced %d shards", tc.n, tc.k, len(shards))
		}
		next := 0
		for _, sh := range shards {
			if sh[0] != next || sh[1] <= sh[0] {
				t.Fatalf("Shards(%d,%d) = %v not contiguous", tc.n, tc.k, shards)
			}
			next = sh[1]
		}
		if next != tc.n {
			t.Fatalf("Shards(%d,%d) covers [0,%d), want [0,%d)", tc.n, tc.k, next, tc.n)
		}
	}
	if Shards(0, 4) != nil {
		t.Error("Shards(0, k) should be nil")
	}
}

func TestForEachRunsAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 100
		seen := make([]atomic.Int64, n)
		err := ForEach(n, workers, func(i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if seen[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, seen[i].Load())
			}
		}
	}
}

func TestForEachReportsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(50, workers, func(i int) error {
			if i == 13 || i == 37 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: want error", workers)
		}
		if err.Error() != "fail-13" {
			t.Fatalf("workers=%d: got %q, want the lowest-index error unmodified", workers, err)
		}
	}
}

func TestChainSeedDerivation(t *testing.T) {
	if ChainSeed(123, 0) != 123 {
		t.Fatal("chain 0 must use the base seed")
	}
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := ChainSeed(123, i)
		if seen[s] {
			t.Fatalf("duplicate chain seed at chain %d", i)
		}
		seen[s] = true
	}
	if ChainSeed(123, 1) == ChainSeed(124, 1) {
		t.Fatal("different base seeds must derive different chain seeds")
	}
}
