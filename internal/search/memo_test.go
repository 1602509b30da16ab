package search

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetopt/internal/offload"
	"hetopt/internal/space"
)

func hashInt(k int) uint64 { return uint64(k) }

func hashInt32(k int32) uint64 { return uint64(uint32(k)) }

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// TestMemoConcurrentGrowth: goroutines Get and Do overlapping key
// ranges while every shard's table doubles many times over. Every call
// must return its own key's value and every key must be published
// once. Run under -race, this exercises the lock-free read of a table
// being replaced.
func TestMemoConcurrentGrowth(t *testing.T) {
	const (
		keys       = 5000
		goroutines = 8
	)
	m := NewShardedMemo[int, int](4, hashInt)
	var calls atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			// Each goroutine walks the keys from its own offset, so
			// neighbours race on the same keys as the tables grow.
			for i := 0; i < keys; i++ {
				k := (i + g*keys/goroutines) % keys
				if v, ok, err := m.Get(k); ok {
					if err != nil || v != 3*k+1 {
						t.Errorf("Get(%d) = %d, %v; want %d", k, v, err, 3*k+1)
						return
					}
					continue
				}
				v, err := m.Do(k, func() (int, error) {
					calls.Add(1)
					return 3*k + 1, nil
				})
				if err != nil || v != 3*k+1 {
					t.Errorf("Do(%d) = %d, %v; want %d", k, v, err, 3*k+1)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := calls.Load(); got < keys {
		t.Fatalf("computed %d times, want at least once per key (%d)", got, keys)
	}
	if m.Unique() != keys || m.Lookups() != goroutines*keys {
		t.Fatalf("accounting %d/%d, want %d/%d", m.Lookups(), m.Unique(), goroutines*keys, keys)
	}
	for k := 0; k < keys; k++ {
		if v, ok, err := m.Get(k); !ok || err != nil || v != 3*k+1 {
			t.Fatalf("after growth Get(%d) = %d, %v, %v", k, v, ok, err)
		}
	}
}

// TestMemoGetReplaysError: a failed computation is a hit for Get, which
// returns the stored value and the very error Do returned.
func TestMemoGetReplaysError(t *testing.T) {
	m := NewShardedMemo[string, int](2, hashString)
	boom := errors.New("boom")
	if _, ok, _ := m.Get("k"); ok {
		t.Fatal("hit before any Do")
	}
	if v, err := m.Do("k", func() (int, error) { return 5, boom }); v != 5 || err != boom {
		t.Fatalf("Do = %d, %v", v, err)
	}
	v, ok, err := m.Get("k")
	if !ok || v != 5 || err != boom {
		t.Fatalf("Get = %d, %v, %v; want the cached 5, boom", v, ok, err)
	}
	if m.Lookups() != 2 || m.Unique() != 1 || m.Hits() != 1 {
		t.Fatalf("accounting %d/%d/%d, want 2/1/1", m.Lookups(), m.Unique(), m.Hits())
	}
}

// memoDoer is the Do method Memo and DenseMemo share, so one test
// drives both.
type memoDoer interface {
	Do(int, func() (int, error)) (int, error)
	Lookups() int
	Unique() int
}

// bothMemos returns a fresh Memo and DenseMemo over the keys [0, n).
func bothMemos(n int) map[string]memoDoer {
	return map[string]memoDoer{
		"Memo":      NewShardedMemo[int, int](4, hashInt),
		"DenseMemo": NewDenseMemo[int](n),
	}
}

// TestMemoRacingFirstCalls: goroutines released together walk every key
// in the same order, so first calls race on each key. Every caller sees
// its key's value, each key is published once whatever number of racing
// callers computed it, and every call is one lookup.
func TestMemoRacingFirstCalls(t *testing.T) {
	const keys, goroutines = 64, 16
	for name, m := range bothMemos(keys) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			start := make(chan struct{})
			wg.Add(goroutines)
			for g := 0; g < goroutines; g++ {
				go func() {
					defer wg.Done()
					<-start
					for k := 0; k < keys; k++ {
						v, err := m.Do(k, func() (int, error) {
							runtime.Gosched() // widen the race window
							return 3 * k, nil
						})
						if err != nil || v != 3*k {
							t.Errorf("Do(%d) = %d, %v; want %d", k, v, err, 3*k)
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			if m.Unique() != keys || m.Lookups() != goroutines*keys {
				t.Fatalf("accounting %d lookups / %d unique, want %d / %d", m.Lookups(), m.Unique(), goroutines*keys, keys)
			}
		})
	}
}

// TestMemoDoNeverWaits: a Do that finds its key's computation in flight
// computes its own value instead of waiting, and publishes it; the
// in-flight call then loses the publish, returns its own value and
// counts as a hit.
func TestMemoDoNeverWaits(t *testing.T) {
	for name, m := range bothMemos(2) {
		t.Run(name, func(t *testing.T) {
			started, release := make(chan struct{}), make(chan struct{})
			defer close(release)
			first := make(chan int)
			go func() {
				v, _ := m.Do(1, func() (int, error) {
					close(started)
					<-release
					return 5, nil
				})
				first <- v
			}()
			<-started
			second := make(chan int)
			go func() {
				v, _ := m.Do(1, func() (int, error) { return 5, nil })
				second <- v
			}()
			select {
			case v := <-second:
				if v != 5 {
					t.Fatalf("racing Do = %d, want 5", v)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Do waited on another caller's computation")
			}
			release <- struct{}{} // let the in-flight computation return
			if v := <-first; v != 5 {
				t.Fatalf("in-flight Do = %d, want 5", v)
			}
			if v, err := m.Do(1, func() (int, error) { t.Error("recomputed a published key"); return 0, nil }); v != 5 || err != nil {
				t.Fatalf("later Do = %d, %v; want 5", v, err)
			}
			if m.Lookups() != 3 || m.Unique() != 1 {
				t.Fatalf("accounting %d lookups / %d unique, want 3 / 1", m.Lookups(), m.Unique())
			}
		})
	}
}

// TestMemoPanicClearsFlight: a computation that panics publishes
// nothing, in Memo and DenseMemo alike. A later Do computes the key and
// the calls after it replay that value.
func TestMemoPanicClearsFlight(t *testing.T) {
	for name, m := range bothMemos(4) {
		t.Run(name, func(t *testing.T) {
			func() {
				defer func() {
					if r := recover(); r != "fn failed" {
						t.Fatalf("panic value %v did not propagate", r)
					}
				}()
				_, _ = m.Do(1, func() (int, error) { panic("fn failed") })
			}()
			if v, err := m.Do(1, func() (int, error) { return 7, nil }); v != 7 || err != nil {
				t.Fatalf("Do after the panic = %d, %v; want 7", v, err)
			}
			if v, err := m.Do(1, func() (int, error) { t.Error("recomputed a published key"); return 0, nil }); v != 7 || err != nil {
				t.Fatalf("later Do = %d, %v; want 7", v, err)
			}
		})
	}
}

func TestMemoRejectsNilHash(t *testing.T) {
	for name, build := range map[string]func(){
		"NewMemo":        func() { NewMemo[int, int](nil) },
		"NewShardedMemo": func() { NewShardedMemo[int, int](16, nil) },
		"NewBoundedMemo": func() { NewBoundedMemo[int, int](16, 100, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a nil hash", name)
				}
			}()
			build()
		}()
	}
}

// TestMemoHitZeroAllocs pins both Memo shapes the search stack hits on
// its hot paths as allocation-free: serve's shared ordinal memo and the
// Cache's configuration memo.
func TestMemoHitZeroAllocs(t *testing.T) {
	ords := NewShardedMemo[int32, offload.Measurement](16, hashInt32)
	for k := int32(0); k < 1000; k++ {
		if _, err := ords.Do(k, func() (offload.Measurement, error) {
			return offload.Measurement{Times: offload.Times{Host: float64(k)}}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	k := int32(0)
	if allocs := testing.AllocsPerRun(200, func() {
		k = (k + 397) % 1000
		if v, ok, _ := ords.Get(k); !ok || v.Times.Host != float64(k) {
			t.Fatalf("Get(%d) = %v, %v", k, v, ok)
		}
	}); allocs != 0 {
		t.Fatalf("ordinal memo hit allocates %g allocs/op, want 0", allocs)
	}

	direct := NewBoundedMemo[int32, offload.Measurement](16, 1000, hashInt32)
	for k := int32(0); k < 1000; k++ {
		if _, err := direct.Do(k, func() (offload.Measurement, error) {
			return offload.Measurement{Times: offload.Times{Host: float64(k)}}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := range direct.shards {
		if !direct.shards[i].table.Load().direct() {
			t.Fatalf("shard %d of a full bounded memo is not direct", i)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		k = (k + 397) % 1000
		if v, ok, _ := direct.Get(k); !ok || v.Times.Host != float64(k) {
			t.Fatalf("direct Get(%d) = %v, %v", k, v, ok)
		}
	}); allocs != 0 {
		t.Fatalf("direct memo hit allocates %g allocs/op, want 0", allocs)
	}

	cfgs := NewShardedMemo[space.Config, offload.Measurement](16, HashConfig)
	cfg := space.Config{HostThreads: 48, DeviceThreads: 240, HostFraction: 60}
	if _, err := cfgs.Do(cfg, func() (offload.Measurement, error) { return offload.Measurement{}, nil }); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, ok, _ := cfgs.Get(cfg); !ok {
			t.Fatal("miss")
		}
	}); allocs != 0 {
		t.Fatalf("configuration memo hit allocates %g allocs/op, want 0", allocs)
	}
}

// ordinalValue is the value the bounded-memo tests compute for key k,
// failing with its own error on every 13th key.
func ordinalValue(k int, errs []error) (int, error) {
	return 5*k + 3, errs[k]
}

// ordinalErrors returns one distinct error for every 13th of n keys.
func ordinalErrors(n int) []error {
	errs := make([]error, n)
	for k := 0; k < n; k += 13 {
		errs[k] = fmt.Errorf("key %d failed", k)
	}
	return errs
}

// TestBoundedMemoTurnsDirect fills bounded memos past the switch, in
// ordinal order and in random order with repeats, beside an unbounded
// memo given the same calls. Every shard ends direct with exactly
// ceil(n/shards) slots, never more than the doubling it replaced; the
// accounting matches the unbounded memo's after every call; and every
// value and error replays afterwards through Do and Get.
func TestBoundedMemoTurnsDirect(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{{19926, 16}, {999, 4}, {37, 1}} {
		perm := rand.New(rand.NewSource(int64(tc.n))).Perm(tc.n)
		orders := map[string][]int{"ordinal": make([]int, tc.n), "random": nil}
		for k := range orders["ordinal"] {
			orders["ordinal"][k] = k
		}
		for _, k := range perm {
			orders["random"] = append(orders["random"], k, perm[k%len(perm)])
		}
		for name, keys := range orders {
			t.Run(fmt.Sprintf("n%d/%s", tc.n, name), func(t *testing.T) {
				testBoundedMemoTurnsDirect(t, tc.n, tc.shards, keys)
			})
		}
	}
}

func testBoundedMemoTurnsDirect(t *testing.T, n, shards int, keys []int) {
	errs := ordinalErrors(n)
	bounded := NewBoundedMemo[int, int](shards, n, hashInt)
	plain := NewShardedMemo[int, int](shards, hashInt)
	share := (n + shards - 1) / shards
	// replaced[i] is the size of shard i's last hash table.
	replaced := make([]int, shards)
	for i, k := range keys {
		fn := func() (int, error) { return ordinalValue(k, errs) }
		bv, berr := bounded.Do(k, fn)
		pv, perr := plain.Do(k, fn)
		if bv != pv || berr != perr {
			t.Fatalf("call %d Do(%d): bounded %d, %v; unbounded %d, %v", i, k, bv, berr, pv, perr)
		}
		if bounded.Lookups() != plain.Lookups() || bounded.Unique() != plain.Unique() || bounded.Hits() != plain.Hits() {
			t.Fatalf("call %d: bounded %d/%d/%d, unbounded %d/%d/%d", i,
				bounded.Lookups(), bounded.Unique(), bounded.Hits(), plain.Lookups(), plain.Unique(), plain.Hits())
		}
		s := &bounded.shards[uint64(k)&bounded.mask]
		if tab := s.table.Load(); !tab.direct() {
			replaced[uint64(k)&bounded.mask] = len(tab.slots)
		}
	}
	for i := range bounded.shards {
		tab := bounded.shards[i].table.Load()
		if !tab.direct() || len(tab.slots) != share {
			t.Fatalf("shard %d: direct %v with %d slots, want direct with %d", i, tab.direct(), len(tab.slots), share)
		}
		if len(tab.slots) > 2*replaced[i] {
			t.Fatalf("shard %d: direct table of %d slots outgrows the doubling of its %d-slot hash table", i, len(tab.slots), replaced[i])
		}
	}
	for k := 0; k < n; k++ {
		wv, werr := ordinalValue(k, errs)
		if v, err := bounded.Do(k, func() (int, error) { t.Fatalf("recomputed key %d", k); return 0, nil }); v != wv || err != werr {
			t.Fatalf("Do(%d) after the switch = %d, %v; want %d, %v", k, v, err, wv, werr)
		}
		if v, ok, err := bounded.Get(k); !ok || v != wv || err != werr {
			t.Fatalf("Get(%d) after the switch = %d, %v, %v; want %d, %v", k, v, ok, err, wv, werr)
		}
	}
}

// TestMemoRacingDirectSwitch: eight goroutines call Do on overlapping
// ordinals while every shard of a bounded memo moves from its hash
// tables to its direct table. Every call returns what a serial run of
// the same memo returns, every key is published once, and every call is
// one lookup. Run under -race, this exercises publication into a direct
// table and lock-free reads of the hash table it replaced.
func TestMemoRacingDirectSwitch(t *testing.T) {
	const n, goroutines = 4000, 8
	errs := ordinalErrors(n)
	serial := NewBoundedMemo[int, int](16, n, hashInt)
	want := make([]struct {
		v   int
		err error
	}, n)
	for k := range want {
		want[k].v, want[k].err = serial.Do(k, func() (int, error) { return ordinalValue(k, errs) })
	}
	m := NewBoundedMemo[int, int](16, n, hashInt)
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			<-start
			// Goroutines 2j and 2j+1 walk half the ordinals in step
			// from j*n/4 on, so each pair races first calls on one key
			// while the pairs publish beside each other into the same
			// shards, and every key is visited by four goroutines.
			for i := 0; i < n/2; i++ {
				k := (i + g/2*n/4) % n
				v, err := m.Do(k, func() (int, error) {
					if k%3 == 0 {
						runtime.Gosched() // widen the race window
					}
					return ordinalValue(k, errs)
				})
				if v != want[k].v || err != want[k].err {
					t.Errorf("Do(%d) = %d, %v; serial run %d, %v", k, v, err, want[k].v, want[k].err)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if m.Unique() != n || m.Lookups() != goroutines*n/2 {
		t.Fatalf("accounting %d lookups / %d unique, want %d / %d", m.Lookups(), m.Unique(), goroutines*n/2, n)
	}
	for k := range want {
		if v, ok, err := m.Get(k); !ok || v != want[k].v || err != want[k].err {
			t.Fatalf("Get(%d) = %d, %v, %v; serial run %d, %v", k, v, ok, err, want[k].v, want[k].err)
		}
	}
	for i := range m.shards {
		if !m.shards[i].table.Load().direct() {
			t.Fatalf("shard %d never turned direct", i)
		}
	}
}
