package search

import (
	"errors"
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
