package perf

import (
	"sync"
	"sync/atomic"

	"hetopt/internal/machine"
)

// This file is the precomputed-table layer of the evaluator hot path
// (see DESIGN.md, "The hot path"). Every measurement used to recompute
// its placement from scratch: machine.Place allocates a per-core
// occupancy slice, a ThreadsOnCore slice and a sockets map, and is
// called four times per MeasureFull (host time, device time, host
// energy, device energy). Search loops evaluate the same few hundred
// (threads, affinity) pairs millions of times, so the model instead
// caches the two placement-derived quantities it actually needs:
//
//   - the streaming rate per (threads, affinity, trait-scaled core
//     rate, bytes-per-byte) — the full roofline-capped throughput;
//   - the used-core count per (threads, affinity) — the dynamic-power
//     input.
//
// Tables are built lazily and published through an atomic pointer:
// the read path is lock-free and allocation-free, misses clone the
// affected map copy-on-write under a mutex. Cached values are the
// bit-identical outputs of the original computation — the tables memo
// pure functions of their keys, they never change a value.
//
// Calibration and processor descriptions are exported fields, so a
// caller may mutate them after construction (tests zero the noise
// fields, ablations perturb constants). Every lookup therefore
// revalidates a fingerprint of all non-key inputs — the scalar
// calibration constants, the topology scalars and the identity of the
// SMT-gain and affinity slices — and drops the tables when it changed.
// The one mutation the fingerprint cannot see is writing elements of
// Cal.HostSMTGain/DeviceSMTGain or Processor.Affinities in place;
// replace the slice instead (nothing in the repo mutates them in
// place).

// rateKey identifies one cached throughput: the placement inputs plus
// the trait-dependent inputs of the roofline.
type rateKey struct {
	threads      int
	aff          machine.Affinity
	coreRate     float64
	bytesPerByte float64
}

// rateEntry is one memoized throughput computation.
type rateEntry struct {
	rate float64
	err  error
}

// placeKey identifies one cached placement summary.
type placeKey struct {
	threads int
	aff     machine.Affinity
}

// placeEntry is one memoized placement: the used-core count (the only
// placement output the power model consumes).
type placeEntry struct {
	coresUsed int
	err       error
}

// sideFP fingerprints every non-key input of one side's cached values.
type sideFP struct {
	proc                                       *machine.Processor
	sockets, coresPerSocket, threadsPerCore    int
	reservedCores                              int
	affPtr                                     *machine.Affinity
	affLen                                     int
	memBandwidthGBs                            float64
	smtPtr                                     *float64
	smtLen                                     int
	coreScalingExp, bandwidthEff, oversubDecay float64
	factorA, factorB                           float64 // compact/none (host), balanced/compact (device)
}

// tableFP fingerprints both sides; tables built under one fingerprint
// are valid exactly while the model still fingerprints the same.
type tableFP struct {
	host, device sideFP
}

// tables is one immutable published generation of the cache. Maps are
// never mutated after publication; misses clone the affected map.
type tables struct {
	fp        tableFP
	hostRate  map[rateKey]rateEntry
	devRate   map[rateKey]rateEntry
	hostPlace map[placeKey]placeEntry
	devPlace  map[placeKey]placeEntry
}

// tableCache is the per-model holder: an atomically published current
// generation plus a mutex serializing rebuilds and inserts.
type tableCache struct {
	mu  sync.Mutex
	cur atomic.Pointer[tables]
}

func firstFloat(s []float64) *float64 {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

func firstAff(s []machine.Affinity) *machine.Affinity {
	if len(s) == 0 {
		return nil
	}
	return &s[0]
}

func procFP(p *machine.Processor) (fp sideFP) {
	fp.proc = p
	if p == nil {
		return fp
	}
	fp.sockets = p.Sockets
	fp.coresPerSocket = p.CoresPerSocket
	fp.threadsPerCore = p.ThreadsPerCore
	fp.reservedCores = p.ReservedCores
	fp.affPtr = firstAff(p.Affinities)
	fp.affLen = len(p.Affinities)
	fp.memBandwidthGBs = p.MemBandwidthGBs
	return fp
}

// matches reports whether fp equals the fingerprint of processor p with
// the given side constants — what procFP and fingerprint would build —
// comparing in place instead of building it.
func (fp *sideFP) matches(p *machine.Processor, smt []float64, gamma, bwEff, overDecay, factorA, factorB float64) bool {
	if fp.proc != p || fp.smtPtr != firstFloat(smt) || fp.smtLen != len(smt) ||
		fp.coreScalingExp != gamma || fp.bandwidthEff != bwEff || fp.oversubDecay != overDecay ||
		fp.factorA != factorA || fp.factorB != factorB {
		return false
	}
	if p == nil {
		return true // procFP leaves the processor fields zero on both sides
	}
	return fp.sockets == p.Sockets && fp.coresPerSocket == p.CoresPerSocket &&
		fp.threadsPerCore == p.ThreadsPerCore && fp.reservedCores == p.ReservedCores &&
		fp.affPtr == firstAff(p.Affinities) && fp.affLen == len(p.Affinities) &&
		fp.memBandwidthGBs == p.MemBandwidthGBs
}

// fingerprint snapshots every non-key input of the cached computations.
func (m *Model) fingerprint() tableFP {
	h := procFP(m.Host)
	h.smtPtr = firstFloat(m.Cal.HostSMTGain)
	h.smtLen = len(m.Cal.HostSMTGain)
	h.coreScalingExp = m.Cal.HostCoreScalingExp
	h.bandwidthEff = m.Cal.BandwidthEfficiency
	h.oversubDecay = m.Cal.OversubscriptionDecay
	h.factorA = m.Cal.HostCompactBonus
	h.factorB = m.Cal.HostNonePenalty

	d := procFP(m.Device)
	d.smtPtr = firstFloat(m.Cal.DeviceSMTGain)
	d.smtLen = len(m.Cal.DeviceSMTGain)
	d.coreScalingExp = m.Cal.DeviceCoreScalingExp
	d.bandwidthEff = m.Cal.BandwidthEfficiency
	d.oversubDecay = m.Cal.OversubscriptionDecay
	d.factorA = m.Cal.DeviceBalancedBonus
	d.factorB = m.Cal.DeviceCompactBonus

	return tableFP{host: h, device: d}
}

// current returns the published tables when they are still valid under
// fp, nil otherwise (stale or never built). The read is lock-free.
func (c *tableCache) current(fp tableFP) *tables {
	t := c.cur.Load()
	if t == nil || t.fp != fp {
		return nil
	}
	return t
}

// insert publishes a new generation containing the prior entries (when
// still valid under fp) plus one new entry, applied by set to a cloned
// copy of the affected map. Concurrent inserts serialize on the mutex;
// readers keep using the prior generation until the new one is stored.
func (c *tableCache) insert(fp tableFP, set func(t *tables)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.cur.Load()
	next := &tables{fp: fp}
	if old != nil && old.fp == fp {
		// Share the untouched maps; set clones the one it writes.
		*next = *old
	}
	set(next)
	c.cur.Store(next)
}

func cloneRate(m map[rateKey]rateEntry) map[rateKey]rateEntry {
	out := make(map[rateKey]rateEntry, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

func clonePlace(m map[placeKey]placeEntry) map[placeKey]placeEntry {
	out := make(map[placeKey]placeEntry, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// hostRateDirect is the uncached host throughput computation — exactly
// the pre-table code path: place, derive the affinity factor, apply the
// scaling law and roofline.
func (m *Model) hostRateDirect(threads int, aff machine.Affinity, coreRate, bytesPerByte float64) (float64, error) {
	pl, err := machine.Place(m.Host, threads, aff)
	if err != nil {
		return 0, err
	}
	factor := 1.0
	switch aff {
	case machine.AffinityCompact:
		factor = m.Cal.HostCompactBonus
	case machine.AffinityNone:
		factor = m.Cal.HostNonePenalty
	}
	return throughput(m.Host, pl, coreRate,
		m.Cal.HostSMTGain, m.Cal.HostCoreScalingExp, factor, m.Cal.BandwidthEfficiency,
		bytesPerByte, m.Cal.OversubscriptionDecay), nil
}

// devRateDirect is the uncached device throughput computation.
func (m *Model) devRateDirect(threads int, aff machine.Affinity, coreRate, bytesPerByte float64) (float64, error) {
	pl, err := machine.Place(m.Device, threads, aff)
	if err != nil {
		return 0, err
	}
	factor := 1.0
	switch aff {
	case machine.AffinityBalanced:
		if pl.MaxShare() >= 2 {
			factor = m.Cal.DeviceBalancedBonus
		}
	case machine.AffinityCompact:
		factor = m.Cal.DeviceCompactBonus
	}
	return throughput(m.Device, pl, coreRate,
		m.Cal.DeviceSMTGain, m.Cal.DeviceCoreScalingExp, factor, m.Cal.BandwidthEfficiency,
		bytesPerByte, m.Cal.OversubscriptionDecay), nil
}

// hostRate returns the host throughput from the table, computing and
// inserting on miss. A nil cache (zero-value Model) computes directly.
func (m *Model) hostRate(threads int, aff machine.Affinity, coreRate, bytesPerByte float64) (float64, error) {
	if m.tab == nil {
		return m.hostRateDirect(threads, aff, coreRate, bytesPerByte)
	}
	fp := m.fingerprint()
	k := rateKey{threads: threads, aff: aff, coreRate: coreRate, bytesPerByte: bytesPerByte}
	if t := m.tab.current(fp); t != nil {
		if e, ok := t.hostRate[k]; ok {
			return e.rate, e.err
		}
	}
	rate, err := m.hostRateDirect(threads, aff, coreRate, bytesPerByte)
	m.tab.insert(fp, func(t *tables) {
		t.hostRate = cloneRate(t.hostRate)
		t.hostRate[k] = rateEntry{rate: rate, err: err}
	})
	return rate, err
}

// devRate is the device analogue of hostRate.
func (m *Model) devRate(threads int, aff machine.Affinity, coreRate, bytesPerByte float64) (float64, error) {
	if m.tab == nil {
		return m.devRateDirect(threads, aff, coreRate, bytesPerByte)
	}
	fp := m.fingerprint()
	k := rateKey{threads: threads, aff: aff, coreRate: coreRate, bytesPerByte: bytesPerByte}
	if t := m.tab.current(fp); t != nil {
		if e, ok := t.devRate[k]; ok {
			return e.rate, e.err
		}
	}
	rate, err := m.devRateDirect(threads, aff, coreRate, bytesPerByte)
	m.tab.insert(fp, func(t *tables) {
		t.devRate = cloneRate(t.devRate)
		t.devRate[k] = rateEntry{rate: rate, err: err}
	})
	return rate, err
}

// hostCoresUsed returns the used-core count of the host placement from
// the table, computing and inserting on miss.
func (m *Model) hostCoresUsed(threads int, aff machine.Affinity) (int, error) {
	if m.tab == nil {
		pl, err := machine.Place(m.Host, threads, aff)
		return pl.CoresUsed, err
	}
	fp := m.fingerprint()
	k := placeKey{threads: threads, aff: aff}
	if t := m.tab.current(fp); t != nil {
		if e, ok := t.hostPlace[k]; ok {
			return e.coresUsed, e.err
		}
	}
	pl, err := machine.Place(m.Host, threads, aff)
	m.tab.insert(fp, func(t *tables) {
		t.hostPlace = clonePlace(t.hostPlace)
		t.hostPlace[k] = placeEntry{coresUsed: pl.CoresUsed, err: err}
	})
	return pl.CoresUsed, err
}

// devCoresUsed is the device analogue of hostCoresUsed.
func (m *Model) devCoresUsed(threads int, aff machine.Affinity) (int, error) {
	if m.tab == nil {
		pl, err := machine.Place(m.Device, threads, aff)
		return pl.CoresUsed, err
	}
	fp := m.fingerprint()
	k := placeKey{threads: threads, aff: aff}
	if t := m.tab.current(fp); t != nil {
		if e, ok := t.devPlace[k]; ok {
			return e.coresUsed, e.err
		}
	}
	pl, err := machine.Place(m.Device, threads, aff)
	m.tab.insert(fp, func(t *tables) {
		t.devPlace = clonePlace(t.devPlace)
		t.devPlace[k] = placeEntry{coresUsed: pl.CoresUsed, err: err}
	})
	return pl.CoresUsed, err
}
