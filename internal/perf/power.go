package perf

import "hetopt/internal/machine"

// This file is the power/energy side of the analytic model, the substrate
// of the bi-objective extension (see DESIGN.md, "Objectives and the energy
// model"). Each processing unit that receives work draws its static power
// for the whole heterogeneous run (it is engaged and cannot sleep while
// the other side still computes) plus a placement-aware dynamic increment
// while its own share is executing:
//
//	P_active = IdleW + CoreActiveW * coresUsed + ThreadActiveW * threads
//
// A unit with no work assigned is disengaged and consumes nothing, which
// models powering the card down (or never reserving it). Energy
// measurements carry the same deterministic, configuration-keyed noise
// discipline as timing measurements: re-measuring a configuration
// reproduces the identical joule value.

// HostActivePowerW returns the modeled host power draw in watts while the
// host share executes with the given thread count and affinity. The value
// is deterministic (no measurement noise); it is what the predictor path
// composes with predicted times.
func (m *Model) HostActivePowerW(threads int, aff machine.Affinity) (float64, error) {
	coresUsed, err := m.coresUsed(hostSide, threads, aff)
	if err != nil {
		return 0, err
	}
	return m.hostPowerW(coresUsed, threads, aff), nil
}

// hostPowerW is the host active power formula over a placement's
// used-core count.
func (m *Model) hostPowerW(coresUsed, threads int, aff machine.Affinity) float64 {
	dyn := m.cal.HostCoreActiveW*float64(coresUsed) + m.cal.HostThreadActiveW*float64(threads)
	if aff == machine.AffinityNone && m.cal.HostNonePowerFactor > 0 {
		dyn *= m.cal.HostNonePowerFactor
	}
	return m.cal.HostIdleW + dyn
}

// DeviceActivePowerW returns the modeled device power draw in watts while
// the device share executes.
func (m *Model) DeviceActivePowerW(threads int, aff machine.Affinity) (float64, error) {
	coresUsed, err := m.coresUsed(deviceSide, threads, aff)
	if err != nil {
		return 0, err
	}
	return m.devicePowerW(coresUsed, threads), nil
}

// devicePowerW is the device active power formula over a placement's
// used-core count.
func (m *Model) devicePowerW(coresUsed, threads int) float64 {
	dyn := m.cal.DeviceCoreActiveW*float64(coresUsed) + m.cal.DeviceThreadActiveW*float64(threads)
	return m.cal.DeviceIdleW + dyn
}

// HostModeledEnergy returns the noise-free analytic joules an engaged
// host consumes when its share keeps it busy for busySec of a
// makespanSec-long run: active power while busy, static power for the
// rest. It is the shared pricing core of both the measurement path
// (HostEnergy, which adds noise) and the prediction path (the Predictor
// prices learned times through it).
func (m *Model) HostModeledEnergy(threads int, aff machine.Affinity, busySec, makespanSec float64) (float64, error) {
	p, err := m.HostActivePowerW(threads, aff)
	if err != nil {
		return 0, err
	}
	return ModeledJoules(p, m.cal.HostIdleW, busySec, makespanSec), nil
}

// ModeledJoules is the engaged-unit energy formula: active power p
// while busy, static power idleW for the rest of the makespan.
func ModeledJoules(p, idleW, busySec, makespanSec float64) float64 {
	if makespanSec < busySec {
		makespanSec = busySec
	}
	return p*busySec + idleW*(makespanSec-busySec)
}

// DeviceModeledEnergy is the device analogue of HostModeledEnergy.
func (m *Model) DeviceModeledEnergy(threads int, aff machine.Affinity, busySec, makespanSec float64) (float64, error) {
	p, err := m.DeviceActivePowerW(threads, aff)
	if err != nil {
		return 0, err
	}
	return ModeledJoules(p, m.cal.DeviceIdleW, busySec, makespanSec), nil
}

// HostEnergy returns the measured energy in joules the host consumes
// during a heterogeneous run of makespanSec seconds in which its own
// share keeps it busy for busySec. A zero-size assignment is disengaged
// and consumes nothing. Its noise draw is keyed like HostTime's; equal
// keys reproduce equal measurements.
func (m *Model) HostEnergy(a Assignment, w Traits, busySec, makespanSec float64) (float64, error) {
	if a.SizeMB <= 0 {
		return 0, nil
	}
	e, err := m.HostModeledEnergy(a.Threads, a.Affinity, busySec, makespanSec)
	if err != nil {
		return 0, err
	}
	return e * m.noise("host-energy", w.Name, a, m.cal.NoiseStdHostPower), nil
}

// DeviceEnergy is the device analogue of HostEnergy.
func (m *Model) DeviceEnergy(a Assignment, w Traits, busySec, makespanSec float64) (float64, error) {
	if a.SizeMB <= 0 {
		return 0, nil
	}
	e, err := m.DeviceModeledEnergy(a.Threads, a.Affinity, busySec, makespanSec)
	if err != nil {
		return 0, err
	}
	return e * m.noise("device-energy", w.Name, a, m.cal.NoiseStdDevicePower), nil
}
