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
// and each completed entry can carry its marshaled response bytes
// (SetBody/PeekWarm): warm hits are served by writing stored bytes, so
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
	body []byte // pre-rendered warm-hit response bytes (may lag res)
	err  error
	done bool          // set under the shard mutex once the computation finished
	elem *list.Element // position in the shard's LRU list
}

// defaultStoreShards stripes the store: enough locks that concurrent
// warm hits rarely collide, few enough that the table stays cheap.
const defaultStoreShards = 16

// NewStore returns an empty store evicting least-recently-used completed
// entries beyond capacity; capacity <= 0 means unbounded. The store is
// striped over 16 shards (fewer when capacity is smaller than that);
// the capacity bound is enforced per shard, so the effective bound is
// capacity rounded down to a multiple of the shard count.
func NewStore(capacity int) *Store {
	return NewStoreShards(capacity, defaultStoreShards)
}

// NewStoreShards is NewStore with an explicit shard count (shards < 1
// selects 1). A single-shard store enforces exact global LRU order;
// sharded stores enforce it per stripe.
func NewStoreShards(capacity, shards int) *Store {
	if shards < 1 {
		shards = 1
	}
	if capacity > 0 && shards > capacity {
		shards = capacity
	}
	perShard := 0
	if capacity > 0 {
		perShard = capacity / shards
		if perShard < 1 {
			perShard = 1
		}
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

// shardFor routes a key to its stripe by FNV-1a over the key bytes.
// Routing only spreads keys over locks; no result depends on it.
func (s *Store) shardFor(key []byte) *storeShard {
	if len(s.shards) == 1 {
		return &s.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return &s.shards[h%uint64(len(s.shards))]
}

// shardForString is shardFor over a string key (no conversion copy).
func (s *Store) shardForString(key string) *storeShard {
	if len(s.shards) == 1 {
		return &s.shards[0]
	}
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

// Peek returns the completed result for key without computing anything,
// refreshing its LRU position. It counts a lookup (and a hit) only when
// it finds one, so a Peek-miss followed by Do still accounts exactly one
// lookup per served job.
func (s *Store) Peek(key string) (TuneResult, bool) {
	sh := s.shardForString(key)
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if !ok || !e.done || e.err != nil {
		sh.mu.Unlock()
		return TuneResult{}, false
	}
	sh.lru.MoveToFront(e.elem)
	res := e.res
	sh.mu.Unlock()
	s.lookups.Add(1)
	s.hits.Add(1)
	return res, true
}

// PeekWarm is the warm-hit fast path of the serving layer: it looks a
// completed entry up by its key bytes — the map access compiles to an
// allocation-free string lookup — and returns the pre-rendered response
// body alongside the result. A nil body with ok true means the entry
// completed but its bytes have not been rendered yet (SetBody pending);
// the caller renders once and every later hit is served bytes-only.
// Accounting matches Peek: one lookup and one hit, only on success.
func (s *Store) PeekWarm(key []byte) (body []byte, res TuneResult, ok bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	e, found := sh.entries[string(key)]
	if !found || !e.done || e.err != nil {
		sh.mu.Unlock()
		return nil, TuneResult{}, false
	}
	sh.lru.MoveToFront(e.elem)
	body, res = e.body, e.res
	sh.mu.Unlock()
	s.lookups.Add(1)
	s.hits.Add(1)
	return body, res, true
}

// SetBody attaches the pre-rendered warm-hit response bytes to a
// completed entry. The first caller wins; later calls (concurrent
// renders of the same bytes) are no-ops. The body must be immutable
// after the call — hits hand the same slice to every writer.
func (s *Store) SetBody(key string, body []byte) {
	sh := s.shardForString(key)
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok && e.done && e.err == nil && e.body == nil {
		e.body = body
	}
	sh.mu.Unlock()
}

// Install inserts an already-completed entry — a replicated result
// from a cluster peer — alongside its pre-rendered response bytes,
// which later hits serve verbatim (the byte-identity of failover
// answers is inherited from the owner's bytes, not re-derived). The
// local store wins every race: when the key already has an entry,
// in-flight or completed, Install is a no-op and reports false. It
// counts neither a lookup nor a hit (replication is not traffic).
func (s *Store) Install(key string, res TuneResult, body []byte) bool {
	sh := s.shardForString(key)
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
// finishes and share its outcome. The hit return reports whether this
// call was served without paying for the computation. Failed
// computations are not retained: the error is returned to every call
// sharing the flight, then the entry is dropped so a later request
// recomputes.
func (s *Store) Do(key string, fn func() (TuneResult, error)) (res TuneResult, err error, hit bool) {
	s.lookups.Add(1)
	sh := s.shardForString(key)
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
		e.res, e.err = fn()
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
