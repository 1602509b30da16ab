package search

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDenseMemoSingleFlight: N goroutines released together walk every
// ordinal of a small table in the same order; each ordinal is computed
// exactly once and every caller sees its value.
func TestDenseMemoSingleFlight(t *testing.T) {
	const n, goroutines = 64, 16
	m := NewDenseMemo[int](n)
	var calls [n]atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			<-start
			for ord := 0; ord < n; ord++ {
				if v, ok, err := m.Get(ord); ok && (err != nil || v != 3*ord) {
					t.Errorf("Get(%d) = %d, %v", ord, v, err)
				}
				v, err := m.Do(ord, func() (int, error) {
					calls[ord].Add(1)
					runtime.Gosched() // widen the window for a second computation
					return 3 * ord, nil
				})
				if err != nil || v != 3*ord {
					t.Errorf("Do(%d) = %d, %v", ord, v, err)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	for ord := range calls {
		if got := calls[ord].Load(); got != 1 {
			t.Fatalf("ordinal %d computed %d times, want 1", ord, got)
		}
	}
	if m.Unique() != n || m.Lookups() < goroutines*n {
		t.Fatalf("accounting = %d lookups / %d unique, want >= %d / %d", m.Lookups(), m.Unique(), goroutines*n, n)
	}
}

// TestDenseMemoReplaysErrors: a failed computation runs once; Do and
// Get replay its value and error afterwards.
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
	if v, ok, err := m.Get(2); !ok || err != boom || v != 7 {
		t.Fatalf("Get = %d, %v, %v; want 7, true, boom", v, ok, err)
	}
	if calls != 1 {
		t.Fatalf("failed computation ran %d times, want 1", calls)
	}
	if v, err := m.Do(3, func() (int, error) { return 9, nil }); err != nil || v != 9 {
		t.Fatalf("a failure leaked onto another ordinal: %d, %v", v, err)
	}
}

// TestDenseMemoGetNeverBlocks: Get on an ordinal whose computation is in
// flight misses at once (and counts nothing) instead of waiting; a
// concurrent Do waits and shares the single computation.
func TestDenseMemoGetNeverBlocks(t *testing.T) {
	m := NewDenseMemo[int](2)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := m.Do(1, func() (int, error) {
			close(started)
			<-release
			return 5, nil
		})
		done <- v
	}()
	<-started
	if _, ok, _ := m.Get(1); ok {
		t.Fatal("Get hit an in-flight ordinal")
	}
	if _, ok, _ := m.Get(0); ok {
		t.Fatal("Get hit an ordinal never computed")
	}
	waiter := make(chan int)
	go func() {
		v, _ := m.Do(1, func() (int, error) { t.Error("second computation"); return 0, nil })
		waiter <- v
	}()
	close(release)
	if a, b := <-done, <-waiter; a != 5 || b != 5 {
		t.Fatalf("Do results %d, %d; want 5, 5", a, b)
	}
	if v, ok, _ := m.Get(1); !ok || v != 5 {
		t.Fatalf("Get after completion = %d, %v", v, ok)
	}
	if m.Lookups() != 3 || m.Unique() != 1 {
		t.Fatalf("accounting = %d/%d, want 3 lookups / 1 unique", m.Lookups(), m.Unique())
	}
}

// TestDenseMemoHitZeroAllocs: a hit through Get, and through Do, is
// allocation-free.
func TestDenseMemoHitZeroAllocs(t *testing.T) {
	m := NewDenseMemo[float64](1 << 10)
	if _, err := m.Do(513, func() (float64, error) { return 1.5, nil }); err != nil {
		t.Fatal(err)
	}
	fn := func() (float64, error) { return 0, nil }
	allocs := testing.AllocsPerRun(200, func() {
		if v, ok, err := m.Get(513); !ok || err != nil || v != 1.5 {
			t.Fatal("miss")
		}
		if v, err := m.Do(513, fn); err != nil || v != 1.5 {
			t.Fatal("recomputed")
		}
	})
	if allocs != 0 {
		t.Fatalf("DenseMemo hit allocates %g allocs/op, want 0", allocs)
	}
}

// TestDenseMemoAccountingMatchesMemo: one random sequence of Get and Do
// calls, some failing, leaves DenseMemo and Memo with identical
// Lookups, Unique and Hits after every call.
func TestDenseMemoAccountingMatchesMemo(t *testing.T) {
	const n = 50
	dense := NewDenseMemo[int](n)
	memo := NewMemo[int, int](hashInt)
	rng := rand.New(rand.NewSource(3))
	boom := errors.New("boom")
	for i := 0; i < 2000; i++ {
		ord := rng.Intn(n)
		if rng.Intn(3) == 0 {
			dv, dok, derr := dense.Get(ord)
			mv, mok, merr := memo.Get(ord)
			if dv != mv || dok != mok || derr != merr {
				t.Fatalf("call %d Get(%d): dense %d,%v,%v memo %d,%v,%v", i, ord, dv, dok, derr, mv, mok, merr)
			}
		} else {
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := m.Get(i & (1<<15 - 1)); !ok {
			b.Fatal("miss")
		}
	}
}
