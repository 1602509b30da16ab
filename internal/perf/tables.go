package perf

import (
	"maps"
	"sync"
	"sync/atomic"

	"hetopt/internal/machine"
)

// This file is the precomputed-table layer of the evaluator hot path
// (see DESIGN.md, "The hot path"). machine.Place allocates a per-core
// occupancy slice, a ThreadsOnCore slice and a sockets map, and a
// MeasureFull needs four placements (host time, device time, host
// energy, device energy). Search loops evaluate the same few hundred
// (threads, affinity) pairs millions of times, so the model caches the
// two placement-derived quantities it actually needs, per side:
//
//   - the streaming rate per (threads, affinity, trait-scaled core
//     rate, bytes-per-byte) — the full roofline-capped throughput;
//   - the used-core count per (threads, affinity) — the dynamic-power
//     input.
//
// Tables are filled lazily and published through an atomic pointer:
// the read path is lock-free and allocation-free, a miss clones the
// affected map copy-on-write under a mutex. A model never changes after
// NewModel, so an entry, once computed, is valid for the model's
// lifetime; entries are the bit-identical outputs of the direct
// computation.

// side selects the host or the device half of the tables.
type side int

const (
	hostSide side = iota
	deviceSide
)

// placeKey identifies one placement: a thread count and an affinity.
type placeKey struct {
	threads int
	aff     machine.Affinity
}

// rateKey identifies one cached throughput: the placement plus the
// trait-dependent inputs of the roofline.
type rateKey struct {
	placeKey
	coreRate     float64
	bytesPerByte float64
}

// rateEntry is one memoized throughput computation.
type rateEntry struct {
	rate float64
	err  error
}

// placeEntry is one memoized placement: the used-core count (the only
// placement output the power model consumes).
type placeEntry struct {
	coresUsed int
	err       error
}

// tables is one immutable published generation of the cache, indexed
// by side. Maps are never mutated after publication; a miss clones the
// map it adds to.
type tables struct {
	rate  [2]map[rateKey]rateEntry
	place [2]map[placeKey]placeEntry
}

// tableCache holds the atomically published current generation plus a
// mutex serializing inserts.
type tableCache struct {
	mu  sync.Mutex
	cur atomic.Pointer[tables]
}

// insert publishes a new generation sharing the current one's maps,
// after set has replaced the map it writes with a copy holding the new
// entry. Readers keep using the prior generation until it is stored.
func (c *tableCache) insert(set func(t *tables)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := &tables{}
	if old := c.cur.Load(); old != nil {
		*next = *old
	}
	set(next)
	c.cur.Store(next)
}

// with returns a copy of m holding v at k.
func with[K comparable, V any](m map[K]V, k K, v V) map[K]V {
	out := make(map[K]V, len(m)+1)
	maps.Copy(out, m)
	out[k] = v
	return out
}

// hostRateDirect is the uncached host throughput computation: place,
// derive the affinity factor, apply the scaling law and roofline.
func (m *Model) hostRateDirect(threads int, aff machine.Affinity, coreRate, bytesPerByte float64) (float64, error) {
	pl, err := machine.Place(m.host, threads, aff)
	if err != nil {
		return 0, err
	}
	factor := 1.0
	switch aff {
	case machine.AffinityCompact:
		factor = m.cal.HostCompactBonus
	case machine.AffinityNone:
		factor = m.cal.HostNonePenalty
	}
	return throughput(m.host, pl, coreRate,
		m.cal.HostSMTGain, m.cal.HostCoreScalingExp, factor, m.cal.BandwidthEfficiency,
		bytesPerByte, m.cal.OversubscriptionDecay), nil
}

// devRateDirect is the uncached device throughput computation.
func (m *Model) devRateDirect(threads int, aff machine.Affinity, coreRate, bytesPerByte float64) (float64, error) {
	pl, err := machine.Place(m.device, threads, aff)
	if err != nil {
		return 0, err
	}
	factor := 1.0
	switch aff {
	case machine.AffinityBalanced:
		if pl.MaxShare() >= 2 {
			factor = m.cal.DeviceBalancedBonus
		}
	case machine.AffinityCompact:
		factor = m.cal.DeviceCompactBonus
	}
	return throughput(m.device, pl, coreRate,
		m.cal.DeviceSMTGain, m.cal.DeviceCoreScalingExp, factor, m.cal.BandwidthEfficiency,
		bytesPerByte, m.cal.OversubscriptionDecay), nil
}

// rate returns side s's throughput from the table, computing and
// inserting it on a miss.
func (m *Model) rate(s side, threads int, aff machine.Affinity, coreRate, bytesPerByte float64) (float64, error) {
	k := rateKey{placeKey{threads, aff}, coreRate, bytesPerByte}
	if t := m.tab.cur.Load(); t != nil {
		if e, ok := t.rate[s][k]; ok {
			return e.rate, e.err
		}
	}
	var e rateEntry
	if s == hostSide {
		e.rate, e.err = m.hostRateDirect(threads, aff, coreRate, bytesPerByte)
	} else {
		e.rate, e.err = m.devRateDirect(threads, aff, coreRate, bytesPerByte)
	}
	m.tab.insert(func(t *tables) { t.rate[s] = with(t.rate[s], k, e) })
	return e.rate, e.err
}

// coresUsed returns the used-core count of side s's placement from the
// table, computing and inserting it on a miss.
func (m *Model) coresUsed(s side, threads int, aff machine.Affinity) (int, error) {
	k := placeKey{threads, aff}
	if t := m.tab.cur.Load(); t != nil {
		if e, ok := t.place[s][k]; ok {
			return e.coresUsed, e.err
		}
	}
	p := m.host
	if s == deviceSide {
		p = m.device
	}
	pl, err := machine.Place(p, threads, aff)
	e := placeEntry{coresUsed: pl.CoresUsed, err: err}
	m.tab.insert(func(t *tables) { t.place[s] = with(t.place[s], k, e) })
	return e.coresUsed, e.err
}
