package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// render is a Do computation that succeeds with res and a body naming it.
func render(res TuneResult) func() (TuneResult, []byte, error) {
	return func() (TuneResult, []byte, error) {
		return res, []byte(fmt.Sprintf("%+v\n", res)), nil
	}
}

func TestStoreSingleFlight(t *testing.T) {
	s := NewStore(0)
	var computes int
	var mu sync.Mutex
	compute := func() (TuneResult, []byte, error) {
		mu.Lock()
		computes++
		mu.Unlock()
		return TuneResult{TimeSec: 1.5}, []byte("1.5\n"), nil
	}

	const callers = 16
	var wg sync.WaitGroup
	hits := make([]bool, callers)
	results := make([]TuneResult, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err, hit := s.Do("k", compute)
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			hits[i], results[i] = hit, res
		}(i)
	}
	wg.Wait()

	if computes != 1 {
		t.Fatalf("computed %d times, want 1 (single flight)", computes)
	}
	paid := 0
	for i := range hits {
		if results[i].TimeSec != 1.5 {
			t.Fatalf("caller %d got %+v", i, results[i])
		}
		if !hits[i] {
			paid++
		}
	}
	if paid != 1 {
		t.Fatalf("%d callers paid, want exactly 1", paid)
	}
	if s.Lookups() != callers || s.Hits() != callers-1 {
		t.Fatalf("accounting lookups=%d hits=%d, want %d/%d", s.Lookups(), s.Hits(), callers, callers-1)
	}
}

func TestStorePeek(t *testing.T) {
	s := NewStore(0)
	if _, _, ok := s.PeekWarm([]byte("missing")); ok {
		t.Fatalf("PeekWarm found a missing key")
	}
	if s.Lookups() != 0 {
		t.Fatalf("a PeekWarm miss must not count a lookup (the later Do counts it)")
	}
	if _, err, _ := s.Do("k", render(TuneResult{EnergyJ: 3})); err != nil {
		t.Fatalf("Do: %v", err)
	}
	_, res, ok := s.PeekWarm([]byte("k"))
	if !ok || res.EnergyJ != 3 {
		t.Fatalf("PeekWarm after Do: ok=%v res=%+v", ok, res)
	}
	if s.Lookups() != 2 || s.Hits() != 1 {
		t.Fatalf("accounting lookups=%d hits=%d, want 2/1", s.Lookups(), s.Hits())
	}
}

func TestStoreErrorsNotRetained(t *testing.T) {
	s := NewStore(0)
	calls := 0
	failing := func() (TuneResult, []byte, error) { calls++; return TuneResult{}, nil, fmt.Errorf("boom %d", calls) }
	if _, err, _ := s.Do("k", failing); err == nil {
		t.Fatalf("first Do swallowed the error")
	}
	if s.Len() != 0 {
		t.Fatalf("failed entry retained (len %d)", s.Len())
	}
	if _, _, ok := s.PeekWarm([]byte("k")); ok {
		t.Fatalf("PeekWarm served a failed entry")
	}
	if _, err, hit := s.Do("k", failing); err == nil || hit {
		t.Fatalf("second Do should recompute and fail again (err=%v hit=%v)", err, hit)
	}
	if calls != 2 {
		t.Fatalf("computed %d times, want 2 (errors are not cached)", calls)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	// A single shard gives exact global LRU order; the default sharded
	// layout enforces the bound per stripe.
	s := newStore(2, 1)
	put := func(key string, v float64) {
		t.Helper()
		if _, err, _ := s.Do(key, render(TuneResult{TimeSec: v})); err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
	}
	put("a", 1)
	put("b", 2)
	// Refresh "a" so "b" is the LRU victim when "c" lands.
	if _, _, ok := s.PeekWarm([]byte("a")); !ok {
		t.Fatalf("PeekWarm(a) missed")
	}
	put("c", 3)
	if s.Len() != 2 {
		t.Fatalf("len %d, want 2 (capacity)", s.Len())
	}
	if s.Evictions() != 1 {
		t.Fatalf("evictions %d, want 1", s.Evictions())
	}
	if _, _, ok := s.PeekWarm([]byte("b")); ok {
		t.Fatalf("LRU victim b survived")
	}
	if _, _, ok := s.PeekWarm([]byte("a")); !ok {
		t.Fatalf("recently-used a evicted")
	}
	if _, _, ok := s.PeekWarm([]byte("c")); !ok {
		t.Fatalf("newest c evicted")
	}
}

func TestStoreEvictionSparesInFlight(t *testing.T) {
	s := NewStore(1)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = s.Do("slow", func() (TuneResult, []byte, error) {
			close(started)
			<-gate
			return TuneResult{}, []byte("slow\n"), nil
		})
	}()
	<-started
	// Two completed entries land while "slow" is in flight; only
	// completed entries may be evicted.
	if _, err, _ := s.Do("a", render(TuneResult{})); err != nil {
		t.Fatalf("Do(a): %v", err)
	}
	if _, err, _ := s.Do("b", render(TuneResult{})); err != nil {
		t.Fatalf("Do(b): %v", err)
	}
	close(gate)
	<-done
	if _, _, ok := s.PeekWarm([]byte("slow")); !ok {
		t.Fatalf("in-flight entry was evicted mid-flight")
	}
}

// TestStorePeekWarmServesBody: a completed entry always carries the
// bytes its computation rendered, and a later Do never replaces them.
func TestStorePeekWarmServesBody(t *testing.T) {
	s := NewStore(0)
	if _, err, _ := s.Do("k", func() (TuneResult, []byte, error) {
		return TuneResult{EnergyJ: 7}, []byte("first\n"), nil
	}); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if _, _, hit := s.Do("k", func() (TuneResult, []byte, error) {
		t.Error("recomputed a completed key")
		return TuneResult{}, []byte("second\n"), nil
	}); !hit {
		t.Fatalf("second Do paid for a completed key")
	}
	body, res, ok := s.PeekWarm([]byte("k"))
	if !ok || string(body) != "first\n" || res.EnergyJ != 7 {
		t.Fatalf("PeekWarm: ok=%v body=%q res=%+v", ok, body, res)
	}
	if s.Lookups() != 3 || s.Hits() != 2 {
		t.Fatalf("accounting lookups=%d hits=%d, want 3/2", s.Lookups(), s.Hits())
	}
}

// TestStorePeekWarmDuringCompute: readers hammering PeekWarm while Do
// computes the key miss until the entry completes, then every hit
// returns the exact rendered bytes — never a result without its body.
func TestStorePeekWarmDuringCompute(t *testing.T) {
	s := NewStore(0)
	want := []byte(`{"state":"done","cached":true}` + "\n")
	started, release, stop := make(chan struct{}), make(chan struct{}), make(chan struct{})
	var readers sync.WaitGroup
	var hits atomic.Int64
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			key := []byte("k")
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, res, ok := s.PeekWarm(key)
				if !ok {
					continue
				}
				hits.Add(1)
				if !bytes.Equal(body, want) || res.TimeSec != 2.5 {
					t.Errorf("hit returned body %q res %+v", body, res)
					return
				}
			}
		}()
	}
	go func() {
		<-started
		time.Sleep(5 * time.Millisecond) // let readers miss the in-flight entry
		close(release)
	}()
	if _, err, hit := s.Do("k", func() (TuneResult, []byte, error) {
		close(started)
		<-release
		return TuneResult{TimeSec: 2.5}, bytes.Clone(want), nil
	}); err != nil || hit {
		t.Fatalf("Do: err=%v hit=%v", err, hit)
	}
	for hits.Load() < 100 && !t.Failed() {
		runtime.Gosched()
	}
	close(stop)
	readers.Wait()
}

func TestStoreShardedBound(t *testing.T) {
	// The sharded layout enforces capacity per stripe: the effective
	// bound is capacity rounded down to a multiple of the shard count,
	// and Len never exceeds the nominal capacity.
	s := NewStore(16) // 16 shards, 1 entry each
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("k%03d", i)
		if _, err, _ := s.Do(key, render(TuneResult{TimeSec: float64(i)})); err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
	}
	if s.Len() > 16 {
		t.Fatalf("len %d exceeds capacity 16", s.Len())
	}
	if s.Evictions() != 100-s.Len() {
		t.Fatalf("evictions %d + retained %d != 100 inserts", s.Evictions(), s.Len())
	}
	// Small capacities shrink the shard count instead of rounding the
	// bound to zero.
	tiny := NewStore(3)
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("t%d", i)
		if _, err, _ := tiny.Do(key, render(TuneResult{})); err != nil {
			t.Fatalf("Do(%s): %v", key, err)
		}
	}
	if tiny.Len() > 3 || tiny.Len() == 0 {
		t.Fatalf("len %d, want 1..3", tiny.Len())
	}
}
