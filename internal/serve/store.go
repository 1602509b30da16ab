package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Store is the warm-start result store: a concurrency-safe,
// single-flight, optionally size-bounded table of completed tuning
// results keyed on the canonicalized request (TuneRequest.Key). Repeat
// queries are answered from the store with hit accounting, and
// concurrent first queries for the same key share one computation —
// the same single-flight discipline as search.Memo, extended with LRU
// eviction and with "did this call pay?" reporting so jobs can be
// marked as store hits.
//
// Entries are striped over 16 independently locked shards, so the warm-hit
// fast path of concurrent submissions never serializes on one mutex,
// and each completed entry carries its marshaled response bytes
// (PeekWarm): warm hits are served by writing stored bytes, so
// bit-identity of repeated answers is structural — every hit literally
// returns the same bytes — rather than a property of re-marshaling.
//
// Results are pure functions of the canonical request, so serving from
// the store never changes a returned value — identical requests yield
// bit-identical results whether computed or replayed.
type Store struct {
	shards []storeShard

	lookups   atomic.Int64
	hits      atomic.Int64
	evictions atomic.Int64
}

// storeShard is one lock stripe: a mutex, the entries it guards, that
// stripe's LRU list and its share of the capacity bound.
type storeShard struct {
	mu      sync.Mutex
	entries map[string]*storeEntry
	lru     *list.List // front = most recently used; values are keys
	cap     int        // per-shard bound; <= 0 means unbounded
}

// storeEntry holds one single-flight computation.
type storeEntry struct {
	once sync.Once
	res  TuneResult
	body []byte // rendered warm-hit response bytes, set with res
	err  error
	done bool          // set under the shard mutex once res and body are in place
	elem *list.Element // position in the shard's LRU list
}

// NewStore returns an empty store evicting least-recently-used completed
// entries beyond capacity; capacity <= 0 means unbounded. The store is
// striped over 16 shards (fewer when capacity is smaller than that);
// the capacity bound is enforced per shard, so the effective bound is
// capacity rounded down to a multiple of the shard count.
func NewStore(capacity int) *Store {
	return newStore(capacity, 16)
}

// newStore is NewStore with an explicit shard count. A single-shard
// store enforces exact global LRU order; sharded stores enforce it per
// stripe.
func newStore(capacity, shards int) *Store {
	if capacity > 0 && shards > capacity {
		shards = capacity
	}
	perShard := 0
	if capacity > 0 {
		perShard = capacity / shards
	}
	s := &Store{shards: make([]storeShard, shards)}
	for i := range s.shards {
		s.shards[i] = storeShard{
			entries: map[string]*storeEntry{},
			lru:     list.New(),
			cap:     perShard,
		}
	}
	return s
}

// storeKey is a key's spelling: the canonical string, or its bytes on
// the warm path, looked up without a conversion copy.
type storeKey interface{ ~string | ~[]byte }

// shardOf routes a key to its stripe by FNV-1a over the key bytes.
// Routing only spreads keys over locks; no result depends on it.
func shardOf[K storeKey](s *Store, key K) *storeShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &s.shards[h%uint64(len(s.shards))]
}

// peek returns key's completed entry without computing anything,
// refreshing its LRU position. It counts a lookup and a hit only when
// it finds one, so a miss followed by Do still accounts exactly one
// lookup per served job. A completed entry's result and body never
// change, so the caller reads them without the stripe lock.
func peek[K storeKey](s *Store, key K) (*storeEntry, bool) {
	sh := shardOf(s, key)
	sh.mu.Lock()
	e, ok := sh.entries[string(key)]
	if !ok || !e.done {
		sh.mu.Unlock()
		return nil, false
	}
	sh.lru.MoveToFront(e.elem)
	sh.mu.Unlock()
	s.lookups.Add(1)
	s.hits.Add(1)
	return e, true
}

// PeekWarm is the warm-hit fast path of the serving layer: it looks a
// completed entry up by its key bytes — the map access compiles to an
// allocation-free string lookup — and returns the rendered response
// body alongside the result. Every completed entry has its body.
func (s *Store) PeekWarm(key []byte) (body []byte, res TuneResult, ok bool) {
	e, ok := peek(s, key)
	if !ok {
		return nil, TuneResult{}, false
	}
	return e.body, e.res, true
}

// Install inserts an already-completed entry — a replicated result
// from a cluster peer — alongside its pre-rendered response bytes,
// which later hits serve verbatim (the byte-identity of failover
// answers is inherited from the owner's bytes, not re-derived). The
// local store wins every race: when the key already has an entry,
// in-flight or completed, Install is a no-op and reports false. It
// counts neither a lookup nor a hit (replication is not traffic).
func (s *Store) Install(key string, res TuneResult, body []byte) bool {
	sh := shardOf(s, key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[key]; ok {
		return false
	}
	e := &storeEntry{res: res, body: body, done: true}
	// Consume the single-flight slot so a racing Do on this entry can
	// never recompute over the installed result.
	e.once.Do(func() {})
	e.elem = sh.lru.PushFront(key)
	sh.entries[key] = e
	s.evictLocked(sh)
	return true
}

// Do returns the stored result for key, computing it with fn on the
// first call; concurrent first calls block until the single computation
// finishes and share its outcome. fn returns the result together with
// its rendered warm-hit response bytes, and the entry turns completed
// with both at once, so no hit ever finds a result without its bytes.
// The hit return reports whether this call was served without paying
// for the computation. Failed computations are not retained: the error
// is returned to every call sharing the flight, then the entry is
// dropped so a later request recomputes.
func (s *Store) Do(key string, fn func() (TuneResult, []byte, error)) (res TuneResult, err error, hit bool) {
	s.lookups.Add(1)
	sh := shardOf(s, key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok {
		e = &storeEntry{}
		e.elem = sh.lru.PushFront(key)
		sh.entries[key] = e
	} else {
		sh.lru.MoveToFront(e.elem)
	}
	sh.mu.Unlock()

	computed := false
	e.once.Do(func() {
		computed = true
		e.res, e.body, e.err = fn()
		sh.mu.Lock()
		if e.err != nil {
			// Drop failed entries (only if still ours: a concurrent
			// replacement is someone else's flight).
			if sh.entries[key] == e {
				delete(sh.entries, key)
				sh.lru.Remove(e.elem)
			}
		} else {
			e.done = true
			s.evictLocked(sh)
		}
		sh.mu.Unlock()
	})
	if !computed {
		s.hits.Add(1)
	}
	return e.res, e.err, !computed
}

// evictLocked drops least-recently-used completed entries beyond the
// shard's capacity. In-flight entries are never evicted (their flight
// must stay shared); callers hold sh.mu.
func (s *Store) evictLocked(sh *storeShard) {
	if sh.cap <= 0 {
		return
	}
	for elem := sh.lru.Back(); elem != nil && len(sh.entries) > sh.cap; {
		prev := elem.Prev()
		key := elem.Value.(string)
		if e := sh.entries[key]; e != nil && e.done {
			delete(sh.entries, key)
			sh.lru.Remove(elem)
			s.evictions.Add(1)
		}
		elem = prev
	}
}

// Len returns the number of entries (in-flight included).
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Lookups, Hits and Evictions report the store accounting: one lookup
// per served job, Hits of which were answered without a computation.
func (s *Store) Lookups() int { return int(s.lookups.Load()) }

// Hits returns the number of lookups served without paying for a run.
func (s *Store) Hits() int { return int(s.hits.Load()) }

// Evictions returns the number of completed entries dropped by the
// capacity bound.
func (s *Store) Evictions() int { return int(s.evictions.Load()) }
