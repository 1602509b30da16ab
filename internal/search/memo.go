package search

import (
	"sync"
	"sync/atomic"
)

// Memo slot states. A slot is published once, by its state word moving
// from memoEmpty to memoDone or memoFailed, and never changes again in
// that table.
const (
	memoEmpty uint32 = iota
	memoDone
	memoFailed
)

// memoSlot is one inline entry of a memo table. For pointer-free K and
// V the slot, and so the whole table, holds no pointers for the garbage
// collector to scan.
type memoSlot[K comparable, V any] struct {
	state atomic.Uint32
	key   K
	val   V
}

// memoTable is one open-addressed, linear-probing table of a power-of-
// two number of slots. Once a shard replaces it with a larger table it
// is never written again, so a reader still holding it sees a
// consistent snapshot.
type memoTable[K comparable, V any] struct {
	slots []memoSlot[K, V]
	shift uint // 64 - log2(len(slots))
}

// minMemoSlots is the size of a shard's first table.
const minMemoSlots = 8

func newMemoTable[K comparable, V any](n int) *memoTable[K, V] {
	shift := uint(64)
	for s := 1; s < n; s <<= 1 {
		shift--
	}
	return &memoTable[K, V]{slots: make([]memoSlot[K, V], n), shift: shift}
}

// find returns key's published slot and its state, or memoEmpty when
// the table holds no such key. The slot's key and value are read only
// after its state word is seen published.
func (t *memoTable[K, V]) find(key K, h uint64) (*memoSlot[K, V], uint32) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(h); ; i = (i + 1) & mask {
		s := &t.slots[i]
		st := s.state.Load()
		if st == memoEmpty || s.key == key {
			return s, st
		}
	}
}

// home is the first slot probed for hash h: Fibonacci hashing takes the
// product's top bits, so even an identity hash spreads over the table.
func (t *memoTable[K, V]) home(h uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> t.shift
}

// put stores a key known to be absent. The key and value are written
// before the state word publishes them.
func (t *memoTable[K, V]) put(key K, h uint64, val V, state uint32) {
	mask := uint64(len(t.slots) - 1)
	i := t.home(h)
	for t.slots[i].state.Load() != memoEmpty {
		i = (i + 1) & mask
	}
	s := &t.slots[i]
	s.key, s.val = key, val
	s.state.Store(state)
}

// memoShard is one stripe of a Memo. Readers only load table; everything
// else is guarded by mu.
type memoShard[K comparable, V any] struct {
	table atomic.Pointer[memoTable[K, V]]

	// lookups and unique count this shard's calls; Memo sums them.
	lookups atomic.Int64
	unique  atomic.Int64

	mu     sync.Mutex
	cond   sync.Cond      // broadcast when a flight ends
	used   int            // published slots in table
	flight map[K]struct{} // keys whose computation is running
	errs   map[K]error    // the error of every memoFailed key
}

// insert publishes key's result, first doubling the table when it
// would pass 3/4 load. Callers hold mu.
func (s *memoShard[K, V]) insert(key K, h uint64, val V, err error, hash func(K) uint64) {
	t := s.table.Load()
	if 4*(s.used+1) > 3*len(t.slots) {
		grown := newMemoTable[K, V](2 * len(t.slots))
		for i := range t.slots {
			sl := &t.slots[i]
			if st := sl.state.Load(); st != memoEmpty {
				grown.put(sl.key, hash(sl.key), sl.val, st)
			}
		}
		s.table.Store(grown)
		t = grown
	}
	state := memoDone
	if err != nil {
		if s.errs == nil {
			s.errs = map[K]error{}
		}
		s.errs[key] = err
		state = memoFailed
	}
	t.put(key, h, val, state)
	s.used++
}

func (s *memoShard[K, V]) err(key K) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errs[key]
}

// Memo is a concurrency-safe, single-flight memo table: concurrent Do
// calls with the same key perform the computation exactly once and share
// the result (including the error). Keys are striped over independently
// locked shards, each an open-addressed table of inline slots. Hits take
// no lock and allocate nothing: Get loads the shard's current table and
// probes it, trusting a slot only once its state word is published.
// Misses take the shard mutex, track the running key in a per-shard
// flight set and run the computation outside the lock. Errors live in a
// per-shard side map, so a table of pointer-free keys and values holds
// no pointers. A computation that panics is forgotten: its waiters wake
// and the next Do computes the key again. The zero value is not usable;
// construct with NewMemo or NewShardedMemo.
type Memo[K comparable, V any] struct {
	shards []memoShard[K, V]
	mask   uint64
	hash   func(K) uint64
}

// NewMemo returns an empty single-shard memo table probing by hash.
func NewMemo[K comparable, V any](hash func(K) uint64) *Memo[K, V] {
	return NewShardedMemo[K, V](1, hash)
}

// NewShardedMemo returns an empty memo table striped over at least
// shards locks (rounded up to a power of two), routing each key by its
// hash's low bits and probing by the whole hash. Sharding never changes
// results, only which mutex a key contends on. It panics on a nil hash.
func NewShardedMemo[K comparable, V any](shards int, hash func(K) uint64) *Memo[K, V] {
	if hash == nil {
		panic("search: memo needs a hash function")
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Memo[K, V]{shards: make([]memoShard[K, V], n), mask: uint64(n - 1), hash: hash}
	for i := range m.shards {
		s := &m.shards[i]
		s.cond.L = &s.mu
		s.table.Store(newMemoTable[K, V](minMemoSlots))
	}
	return m
}

// Do returns the memoized result for key, computing it with fn on the
// first call. Concurrent first calls block until the single computation
// finishes.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	h := m.hash(key)
	s := &m.shards[h&m.mask]
	s.lookups.Add(1)
	s.mu.Lock()
	for {
		if sl, st := s.table.Load().find(key, h); st != memoEmpty {
			var err error
			if st == memoFailed {
				err = s.errs[key]
			}
			s.mu.Unlock()
			return sl.val, err
		}
		if _, running := s.flight[key]; !running {
			break
		}
		s.cond.Wait()
	}
	if s.flight == nil {
		s.flight = map[K]struct{}{}
	}
	s.flight[key] = struct{}{}
	s.mu.Unlock()
	s.unique.Add(1)

	var v V
	var err error
	computed := false
	// Deferred so that a panicking fn still ends its flight and wakes
	// its waiters; only a returned result is published.
	defer func() {
		s.mu.Lock()
		if computed {
			s.insert(key, h, v, err, m.hash)
		}
		delete(s.flight, key)
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	v, err = fn()
	computed = true
	return v, err
}

// Get returns the memoized result for key when its computation has
// already completed, without blocking and without allocating. A miss —
// absent key or a computation still in flight — reports ok false and
// counts nothing, so a Get-then-Do sequence still records exactly one
// lookup per logical evaluation.
func (m *Memo[K, V]) Get(key K) (v V, ok bool, err error) {
	h := m.hash(key)
	s := &m.shards[h&m.mask]
	sl, st := s.table.Load().find(key, h)
	switch st {
	case memoEmpty:
		return v, false, nil
	case memoFailed:
		err = s.err(key)
	}
	s.lookups.Add(1)
	return sl.val, true, err
}

// Lookups returns the number of Do calls and Get hits so far.
func (m *Memo[K, V]) Lookups() int {
	n := int64(0)
	for i := range m.shards {
		n += m.shards[i].lookups.Load()
	}
	return int(n)
}

// Unique returns the number of computations started (cache misses).
func (m *Memo[K, V]) Unique() int {
	n := int64(0)
	for i := range m.shards {
		n += m.shards[i].unique.Load()
	}
	return int(n)
}

// Hits returns the number of lookups served from the memo.
func (m *Memo[K, V]) Hits() int { return m.Lookups() - m.Unique() }
