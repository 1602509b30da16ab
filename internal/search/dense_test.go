package search

import (
	"errors"
	"math/rand"
	"testing"
)

// TestDenseMemoReplaysErrors: a failed computation runs once; later
// calls replay its value and error.
func TestDenseMemoReplaysErrors(t *testing.T) {
	m := NewDenseMemo[int](4)
	boom := errors.New("boom")
	calls := 0
	fail := func() (int, error) { calls++; return 7, boom }
	for i := 0; i < 3; i++ {
		if v, err := m.Do(2, fail); err != boom || v != 7 {
			t.Fatalf("Do #%d = %d, %v; want 7, boom", i, v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed computation ran %d times, want 1", calls)
	}
	if v, err := m.Do(3, func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("a failure leaked onto another ordinal: %d, %v", v, err)
	}
}

// TestDenseMemoHitZeroAllocs: a hit through Do is allocation-free.
func TestDenseMemoHitZeroAllocs(t *testing.T) {
	m := NewDenseMemo[float64](1 << 10)
	if _, err := m.Do(513, func() (float64, error) { return 1.5, nil }); err != nil {
		t.Fatal(err)
	}
	fn := func() (float64, error) { return 0, nil }
	allocs := testing.AllocsPerRun(200, func() {
		if v, err := m.Do(513, fn); err != nil || v != 1.5 {
			t.Fatal("recomputed")
		}
	})
	if allocs != 0 {
		t.Fatalf("DenseMemo hit allocates %g allocs/op, want 0", allocs)
	}
}

// TestDenseMemoAccountingMatchesMemo: one random sequence of Do calls,
// some failing, leaves DenseMemo and Memo with identical Lookups,
// Unique and Hits after every call.
func TestDenseMemoAccountingMatchesMemo(t *testing.T) {
	const n = 50
	dense := NewDenseMemo[int](n)
	memo := NewMemo[int, int](hashInt)
	rng := rand.New(rand.NewSource(3))
	boom := errors.New("boom")
	for i := 0; i < 2000; i++ {
		ord := rng.Intn(n)
		fn := func() (int, error) {
			if ord%7 == 0 {
				return -ord, boom
			}
			return ord * ord, nil
		}
		dv, derr := dense.Do(ord, fn)
		mv, merr := memo.Do(ord, fn)
		if dv != mv || derr != merr {
			t.Fatalf("call %d Do(%d): dense %d,%v memo %d,%v", i, ord, dv, derr, mv, merr)
		}
		if dense.Lookups() != memo.Lookups() || dense.Unique() != memo.Unique() || dense.Hits() != memo.Hits() {
			t.Fatalf("call %d: dense %d/%d/%d memo %d/%d/%d", i,
				dense.Lookups(), dense.Unique(), dense.Hits(), memo.Lookups(), memo.Unique(), memo.Hits())
		}
	}
}

func BenchmarkDenseMemoHit(b *testing.B) {
	m := NewDenseMemo[float64](1 << 15)
	for i := 0; i < 1<<15; i++ {
		if _, err := m.Do(i, func() (float64, error) { return float64(i), nil }); err != nil {
			b.Fatal(err)
		}
	}
	miss := func() (float64, error) { return 0, errors.New("miss") }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Do(i&(1<<15-1), miss); err != nil {
			b.Fatal(err)
		}
	}
}
