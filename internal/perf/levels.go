package perf

import (
	"math"
	"sync/atomic"

	"hetopt/internal/machine"
)

// This file is the level-indexed layer of the measurement hot path, one
// step past the placement tables of tables.go. A search measures one
// workload at the levels of one configuration space, so everything a
// measurement derives from a single level — the side's streaming rate
// and used cores per (threads, affinity) pair, and each noise key's
// FNV-1a state through its size field per share size — is computed once
// per table. A measurement then hashes only the per-configuration rest
// of its four noise keys and runs the time, power and energy formulas
// HostTime, DeviceTime and the energy methods share. The result is
// bit-identical to those methods, and as a model never changes after
// NewModel, a table never goes stale.
//
// A run that measures many states can also hand Measure a Draws: its
// cache of the table's clamped standard-normal draws, one per (noise
// role, side level, split). A draw is a pure function of the noise
// seed, the role, the workload name, the share size and the side's
// threads and affinity — all fixed by the table. The noise's standard
// deviation is not part of it and is applied on every call.

// Levels lists the per-side thread and affinity levels and the share
// sizes a LevelTable covers; level (t, a) of a side is its t-th thread
// count with its a-th affinity.
type Levels struct {
	HostThreads      []int
	HostAffinities   []machine.Affinity
	DeviceThreads    []int
	DeviceAffinities []machine.Affinity
	// HostMB[i] and DeviceMB[i] are the two shares of the i-th split.
	HostMB, DeviceMB []float64
}

// Sample is one measurement: per-side seconds and joules.
type Sample struct {
	HostSec, DeviceSec float64
	HostJ, DeviceJ     float64
}

// sideLevels holds one side's per-(threads, affinity) entries in
// row-major order; ok is false where the placement or rate failed.
type sideLevels struct {
	threads []int
	affs    []machine.Affinity
	rate    []float64
	cores   []int
	ok      []bool
}

// Measurement-noise roles, in the order of LevelTable.keys.
const (
	roleHost = iota
	roleDevice
	roleHostEnergy
	roleDeviceEnergy
	numRoles
)

var roleNames = [numRoles]string{"host", "device", "host-energy", "device-energy"}

// roleOnHost reports whether a noise role perturbs the host side.
func roleOnHost(role int) bool { return role == roleHost || role == roleHostEnergy }

// LevelTable is one workload's level-indexed measurement table over a
// fixed set of levels. It is immutable after construction and safe for
// concurrent use.
type LevelTable struct {
	m         *Model
	cx        float64
	host, dev sideLevels
	hostMB    []float64
	devMB     []float64
	keys      [numRoles][]uint64 // keyHead state per role and split
}

// Draws caches one LevelTable's noise draws for one run: the
// clamped standard-normal draw of each (noise role, side level, split),
// filled on first use. It is safe for concurrent use, and a table only
// reads draws it made itself. A run owns its Draws so the cache lives
// and dies with the run instead of growing every table it measures.
type Draws struct {
	t *LevelTable
	// z[role][level*splits+si] holds the draw's float64 bits; 0 marks
	// one not drawn yet (a draw of exactly +0 is redrawn each time,
	// which changes no value).
	z [numRoles][]atomic.Uint64
}

// NewDraws returns an empty draw cache of t, its four roles cut from
// one allocation.
func (t *LevelTable) NewDraws() *Draws {
	hostN, devN := len(t.host.rate)*len(t.hostMB), len(t.dev.rate)*len(t.hostMB)
	z := make([]atomic.Uint64, 2*(hostN+devN))
	d := &Draws{t: t}
	for role := range d.z {
		n := devN
		if roleOnHost(role) {
			n = hostN
		}
		d.z[role], z = z[:n:n], z[n:]
	}
	return d
}

// NewLevelTable builds the table of workload w over lv. Levels whose
// placement or rate fails are marked, and Measure reports a miss on
// them so the caller's direct path produces the error.
func (m *Model) NewLevelTable(w Traits, lv Levels) *LevelTable {
	t := &LevelTable{
		m:      m,
		cx:     w.complexityOrDefault(),
		hostMB: append([]float64(nil), lv.HostMB...),
		devMB:  append([]float64(nil), lv.DeviceMB...),
	}
	t.host = buildSide(lv.HostThreads, lv.HostAffinities, func(th int, a machine.Affinity) (float64, int, error) {
		r, err := m.HostThroughputFor(th, a, w)
		if err != nil {
			return 0, 0, err
		}
		c, err := m.coresUsed(hostSide, th, a)
		return r, c, err
	})
	t.dev = buildSide(lv.DeviceThreads, lv.DeviceAffinities, func(th int, a machine.Affinity) (float64, int, error) {
		r, err := m.DeviceThroughputFor(th, a, w)
		if err != nil {
			return 0, 0, err
		}
		c, err := m.coresUsed(deviceSide, th, a)
		return r, c, err
	})
	for role, name := range roleNames {
		sizes := t.devMB
		if roleOnHost(role) {
			sizes = t.hostMB
		}
		t.keys[role] = make([]uint64, len(sizes))
		for i, mb := range sizes {
			t.keys[role][i] = keyHead(m.cal.NoiseSeed, name, w.Name, mb)
		}
	}
	return t
}

func buildSide(threads []int, affs []machine.Affinity, at func(int, machine.Affinity) (float64, int, error)) sideLevels {
	n := len(threads) * len(affs)
	s := sideLevels{
		threads: append([]int(nil), threads...),
		affs:    append([]machine.Affinity(nil), affs...),
		rate:    make([]float64, n),
		cores:   make([]int, n),
		ok:      make([]bool, n),
	}
	for ti, th := range threads {
		for ai, a := range affs {
			i := ti*len(affs) + ai
			r, c, err := at(th, a)
			s.rate[i], s.cores[i], s.ok[i] = r, c, err == nil
		}
	}
	return s
}

// Measure is one measurement at host level (ht, ha), device level
// (dt, da) and split si: bit-identical to HostTime, DeviceTime,
// HostEnergy and DeviceEnergy on those shares, composed as an offload
// runtime composes them. It takes its noise draws from d when d is a
// cache of t (nil draws them directly). ok is false when a needed
// level's placement or rate failed; the caller then measures directly.
// It allocates nothing.
func (t *LevelTable) Measure(ht, ha, dt, da, si int, d *Draws) (s Sample, ok bool) {
	m := t.m
	hl, dl := ht*len(t.host.affs)+ha, dt*len(t.dev.affs)+da
	if !t.host.ok[hl] || !t.dev.ok[dl] {
		return Sample{}, false
	}
	if d != nil && d.t != t {
		d = nil
	}
	host := Assignment{SizeMB: t.hostMB[si], Threads: t.host.threads[ht], Affinity: t.host.affs[ha]}
	dev := Assignment{SizeMB: t.devMB[si], Threads: t.dev.threads[dt], Affinity: t.dev.affs[da]}
	if host.SizeMB > 0 {
		s.HostSec = m.hostSec(host, t.cx, t.host.rate[hl], t.noise(d, roleHost, hl, si, host, m.hostSigma(host.Affinity)))
	}
	if dev.SizeMB > 0 {
		s.DeviceSec = m.deviceSec(dev, t.cx, t.dev.rate[dl], t.noise(d, roleDevice, dl, si, dev, m.cal.NoiseStdDevice))
	}
	makespan := math.Max(s.HostSec, s.DeviceSec)
	if !(host.SizeMB <= 0) {
		e := ModeledJoules(m.hostPowerW(t.host.cores[hl], host.Threads, host.Affinity), m.cal.HostIdleW, s.HostSec, makespan)
		s.HostJ = e * t.noise(d, roleHostEnergy, hl, si, host, m.cal.NoiseStdHostPower)
	}
	if !(dev.SizeMB <= 0) {
		e := ModeledJoules(m.devicePowerW(t.dev.cores[dl], dev.Threads), m.cal.DeviceIdleW, s.DeviceSec, makespan)
		s.DeviceJ = e * t.noise(d, roleDeviceEnergy, dl, si, dev, m.cal.NoiseStdDevicePower)
	}
	return s, true
}

// noise is the factor 1 + sigma*z of role's draw for side assignment a
// at side level level and split si; d, when non-nil, is a cache of t.
func (t *LevelTable) noise(d *Draws, role, level, si int, a Assignment, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	if d == nil {
		return noiseFactor(keyTail(t.keys[role][si], a.Threads, a.Affinity), sigma)
	}
	w := &d.z[role][level*len(t.hostMB)+si]
	z := math.Float64frombits(w.Load())
	if z == 0 {
		z = clampedNormal(keyTail(t.keys[role][si], a.Threads, a.Affinity))
		w.Store(math.Float64bits(z))
	}
	return scaledNoise(z, sigma)
}
