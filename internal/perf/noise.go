package perf

import (
	"math"

	"hetopt/internal/machine"
)

// noise returns the deterministic multiplicative perturbation
// 1 + sigma*z, with z a standard-normal draw keyed by (role, workload,
// assignment) and clamped to +-3. sigma <= 0 disables noise.
func (m *Model) noise(role, workload string, a Assignment, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return noiseFactor(measurementHash(m.cal.NoiseSeed, role, workload, a), sigma)
}

// noiseFactor is the perturbation 1 + sigma*z of a measurement-key hash
// (sigma > 0): z is the hash's standard-normal draw clamped to +-3, the
// factor floored at 0.01.
func noiseFactor(key uint64, sigma float64) float64 {
	return scaledNoise(clampedNormal(key), sigma)
}

// clampedNormal is a key hash's standard-normal draw clamped to +-3.
func clampedNormal(key uint64) float64 {
	z := normalFromHash(key)
	if z > 3 {
		z = 3
	} else if z < -3 {
		z = -3
	}
	return z
}

// scaledNoise is the factor 1 + sigma*z of a clamped draw z, floored
// at 0.01.
func scaledNoise(z, sigma float64) float64 {
	f := 1 + sigma*z
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// FNV-1a constants (hash/fnv's 64-bit variant, inlined so the hot path
// hashes without constructing a hash.Hash64 or converting strings to
// byte slices — both heap-allocate on every measurement otherwise).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvUint64 folds v into the running FNV-1a hash as 8 little-endian
// bytes, byte-for-byte identical to binary.LittleEndian.PutUint64
// followed by Write.
func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

// fnvString folds s into the running FNV-1a hash without converting it
// to a byte slice.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// fnvByte folds one byte into the running FNV-1a hash.
func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

// measurementHash is the FNV-1a hash over the measurement key. It is
// pinned bit-identical to the original hash/fnv implementation
// (seed, role, 0, workload, 0, sizeKB, threads, affinity, 0 with all
// integers little-endian) by TestMeasurementHashMatchesStdlibFNV.
func measurementHash(seed uint64, role, workload string, a Assignment) uint64 {
	return keyTail(keyHead(seed, role, workload, a.SizeMB), a.Threads, a.Affinity)
}

// keyHead is the FNV-1a state of a measurement key through its size
// field: everything a level table can hash once per share size.
func keyHead(seed uint64, role, workload string, sizeMB float64) uint64 {
	h := uint64(fnvOffset64)
	h = fnvUint64(h, seed)
	h = fnvString(h, role)
	h = fnvByte(h, 0)
	h = fnvString(h, workload)
	h = fnvByte(h, 0)
	// Quantize size to 1 KB so float formatting cannot perturb the key.
	return fnvUint64(h, uint64(int64(sizeMB*1024)))
}

// keyTail folds the per-configuration rest of the key into a keyHead
// state. The key ends in eight zero bytes: every noise draw, and so
// every pinned result, was derived with them.
func keyTail(h uint64, threads int, aff machine.Affinity) uint64 {
	h = fnvUint64(h, uint64(int64(threads)))
	h = fnvUint64(h, uint64(int64(aff)))
	return fnvUint64(h, 0)
}

// normalFromHash derives a standard-normal variate from a measurement
// key hash x via the Box-Muller transform. The derivation is pure: equal
// keys always produce equal draws.
func normalFromHash(x uint64) float64 {
	// Two decorrelated 64-bit streams via splitmix64 finalizers.
	u1 := toUnit(splitmix64(x))
	u2 := toUnit(splitmix64(x ^ 0xD1B54A32D192ED03))
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// splitmix64 is the finalizer of the SplitMix64 generator; it decorrelates
// consecutive hash values into high-quality 64-bit mixes.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// toUnit maps a uint64 onto (0,1).
func toUnit(x uint64) float64 {
	return (float64(x>>11) + 0.5) / (1 << 53)
}
