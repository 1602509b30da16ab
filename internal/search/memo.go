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

	mu   sync.Mutex
	used int         // published slots in table
	errs map[K]error // the error of every memoFailed key
}

// get returns key's published result, probing the current table
// without a lock; ok is false when the key is not yet published.
func (s *memoShard[K, V]) get(key K, h uint64) (v V, ok bool, err error) {
	sl, st := s.table.Load().find(key, h)
	switch st {
	case memoEmpty:
		return v, false, nil
	case memoFailed:
		s.mu.Lock()
		err = s.errs[key]
		s.mu.Unlock()
	}
	return sl.val, true, err
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

// Memo is a concurrency-safe memo table for pure computations. Keys are
// striped over independently locked shards, each an open-addressed
// table of inline slots. Hits take no lock and allocate nothing: Do and
// Get load the shard's current table and probe it, trusting a slot
// only once its state word is published. A miss runs the computation
// with no lock held, then takes the shard mutex once to publish the
// result (including the error) unless a racing caller published the
// key first; the loser keeps its own, identical, result. So concurrent
// first calls of one key may each compute it, and Unique counts
// published keys, not computations. Errors live in a per-shard side
// map, so a table of pointer-free keys and values holds no pointers. A
// computation that panics publishes nothing. The zero value is not
// usable; construct with NewMemo or NewShardedMemo.
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
		m.shards[i].table.Store(newMemoTable[K, V](minMemoSlots))
	}
	return m
}

// Do returns the memoized result for key, computing it with fn on a
// miss. fn must be pure: a caller that races another on the same key
// computes it too, and the first to publish wins.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	h := m.hash(key)
	s := &m.shards[h&m.mask]
	s.lookups.Add(1)
	if v, ok, err := s.get(key, h); ok {
		return v, err
	}
	v, err := fn()
	s.mu.Lock()
	if _, st := s.table.Load().find(key, h); st == memoEmpty {
		s.insert(key, h, v, err, m.hash)
		s.unique.Add(1)
	}
	s.mu.Unlock()
	return v, err
}

// Get returns the memoized result for key when it is already
// published, without blocking and without allocating. A miss counts
// nothing.
func (m *Memo[K, V]) Get(key K) (v V, ok bool, err error) {
	h := m.hash(key)
	s := &m.shards[h&m.mask]
	if v, ok, err = s.get(key, h); ok {
		s.lookups.Add(1)
	}
	return v, ok, err
}

// Lookups returns the number of Do calls and Get hits so far.
func (m *Memo[K, V]) Lookups() int {
	n := int64(0)
	for i := range m.shards {
		n += m.shards[i].lookups.Load()
	}
	return int(n)
}

// Unique returns the number of keys published (distinct keys computed).
func (m *Memo[K, V]) Unique() int {
	n := int64(0)
	for i := range m.shards {
		n += m.shards[i].unique.Load()
	}
	return int(n)
}

// Hits returns the number of lookups served from the memo.
func (m *Memo[K, V]) Hits() int { return m.Lookups() - m.Unique() }
