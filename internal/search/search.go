// Package search is the concurrent optimization substrate shared by every
// tuning path: concurrency-safe memo tables (deduplicating repeated
// evaluations inside an evaluator, across jobs and chains, and across a
// portfolio's members; a miss computes with no lock held, so a rare
// racing caller computes a key twice) and a deterministic worker-pool runner
// (sharding enumeration and fanning out independent chains). See
// DESIGN.md, "The search layer".
//
// Determinism is the package's design constraint: every helper is written
// so that results depend only on the inputs, never on goroutine
// scheduling. Evaluations in this codebase are pure functions of the
// configuration (measurement noise is hash-keyed, predictions are
// deterministic), so caching and sharding cannot change any value — only
// how many times it is computed and on how many goroutines.
package search

import (
	"math"
	"sync"
	"sync/atomic"

	"hetopt/internal/space"
)

// DenseMemo states of one ordinal.
const (
	denseEmpty uint32 = iota
	denseWriting
	denseDone
	denseFailed
)

// denseCell is one ordinal's slot: its state word and, once the state
// is denseDone or denseFailed, its value.
type denseCell[V any] struct {
	state atomic.Uint32
	val   V
}

// DenseMemo is Memo specialized to keys that are ordinals in [0, n): a
// flat table with one atomic state word per ordinal instead of a
// locked map of allocated entries. Hits are one atomic load, take no
// lock and allocate nothing. A miss runs the computation, claims its
// ordinal with one compare-and-swap and stores the value in place; a
// caller that loses the claim, or finds the ordinal being written,
// keeps its own result and does not wait. Errors are kept off to the
// side, so a table of pointer-free values holds no pointers for the
// garbage collector to scan. Do, Lookups, Unique and Hits count exactly
// as Memo's do for the same call sequence. A computation that panics
// publishes nothing.
type DenseMemo[V any] struct {
	cells []denseCell[V]

	lookups atomic.Int64
	unique  atomic.Int64

	mu   sync.Mutex
	errs map[int]error // guarded by mu
}

// MaxDenseOrdinals is the largest key space a strategy.Portfolio races
// over a DenseMemo of; it races a larger space without a memo. Every
// shipped tuning schema (the largest, Table I's, has 57,267
// configurations) and every placement graph of up to 16 tasks fits.
const MaxDenseOrdinals = 1 << 16

// NewDenseMemo returns an empty memo over the ordinals [0, n).
func NewDenseMemo[V any](n int) *DenseMemo[V] {
	return &DenseMemo[V]{cells: make([]denseCell[V], n)}
}

// Do returns the memoized result for ord, computing it with fn on a
// miss. fn must be pure: a caller that races another on the same
// ordinal computes it too, and the first to claim the cell publishes.
func (m *DenseMemo[V]) Do(ord int, fn func() (V, error)) (V, error) {
	m.lookups.Add(1)
	c := &m.cells[ord]
	switch c.state.Load() {
	case denseDone:
		return c.val, nil
	case denseFailed:
		m.mu.Lock()
		err := m.errs[ord]
		m.mu.Unlock()
		return c.val, err
	}
	v, err := fn()
	if !c.state.CompareAndSwap(denseEmpty, denseWriting) {
		return v, err
	}
	m.unique.Add(1)
	c.val = v
	if err == nil {
		c.state.Store(denseDone)
		return v, nil
	}
	m.mu.Lock()
	if m.errs == nil {
		m.errs = map[int]error{}
	}
	m.errs[ord] = err
	m.mu.Unlock()
	c.state.Store(denseFailed)
	return v, err
}

// Lookups returns the number of Do calls so far.
func (m *DenseMemo[V]) Lookups() int { return int(m.lookups.Load()) }

// Unique returns the number of distinct ordinals published (misses).
func (m *DenseMemo[V]) Unique() int { return int(m.unique.Load()) }

// Hits returns the number of lookups served from the memo, a racing
// duplicate computation included.
func (m *DenseMemo[V]) Hits() int { return m.Lookups() - m.Unique() }

// HashConfig mixes a configuration into a 64-bit hash for a Memo keyed
// by space.Config. It only spreads keys over memo shards and slots; no
// result depends on it. No memo in this module is keyed by
// space.Config; HashConfig stays for the end-to-end benchmark's replay
// (bench/), a separate module that keys its memos by configuration.
func HashConfig(cfg space.Config) uint64 {
	h := splitmix64(uint64(cfg.HostThreads)<<32 ^ uint64(cfg.DeviceThreads))
	h ^= splitmix64(uint64(cfg.HostAffinity)<<8 ^ uint64(cfg.DeviceAffinity))
	h ^= splitmix64(math.Float64bits(cfg.HostFraction))
	return h
}

// ChainSeed derives the seed of worker i (an annealing chain, a
// heuristic restart, a portfolio member) from the base seed. Worker 0
// uses the base seed unchanged — so a single worker reproduces the
// plain single-run behavior bit-for-bit — and later workers get
// decorrelated streams via a SplitMix64 finalizer. Every concurrent
// search path derives its per-worker seeds through this one function,
// which is what makes results reproducible at any parallelism level.
func ChainSeed(base int64, worker int) int64 {
	if worker == 0 {
		return base
	}
	return int64(splitmix64(uint64(base) + uint64(worker)*0x9E3779B97F4A7C15))
}

// splitmix64 is the finalizer of the SplitMix64 generator (also used by
// internal/perf for measurement noise): a high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Workers normalizes a requested parallelism: zero or negative requests
// select 1 (sequential).
func Workers(n int) int {
	if n <= 1 {
		return 1
	}
	return n
}

// Shards splits the range [0, n) into at most k contiguous, near-equal
// subranges [lo, hi). It returns fewer shards when n < k and nil when
// n <= 0.
func Shards(n, k int) [][2]int {
	if n <= 0 {
		return nil
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	shards := make([][2]int, 0, k)
	base, rem := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + base
		if i < rem {
			hi++
		}
		shards = append(shards, [2]int{lo, hi})
		lo = hi
	}
	return shards
}

// ForEach invokes fn(i) for every i in [0, n) using at most workers
// concurrent goroutines. All indices run even if some fail; the error
// with the lowest index is returned unmodified, making both the reported
// failure and its message independent of goroutine scheduling. workers
// <= 1 runs sequentially on the calling goroutine (stopping at the first
// error, which is then also the lowest-index one).
func ForEach(n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
