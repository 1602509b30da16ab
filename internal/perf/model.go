// Package perf provides the analytic performance model that substitutes
// for the paper's physical testbed (2x Intel Xeon E5-2695v2 + Intel Xeon
// Phi 7120P). See DESIGN.md, "Hardware substitution".
//
// The model predicts the execution time of the DNA-analysis workload on a
// processor as
//
//	T = setup + work / throughput (+ offload overhead on the device)
//
// where throughput follows a placement-aware scaling law:
//
//	throughput = coreRate * coresUsed^(gamma-1) * sum_c smtGain(threadsOn(c)) * affinityFactor
//
// capped by the processor's effective memory bandwidth. The device adds the
// offload cost of the Intel "offload" programming model used by the paper:
// a fixed launch/teardown latency plus a PCIe transfer that overlaps with
// computation (the paper explicitly overlaps offloaded parts with host
// execution), leaving a small non-overlapped residual.
//
// Every constant lives in Calibration so tests and ablations can build
// perturbed models from it. Defaults are calibrated to reproduce the
// qualitative behaviour of the paper (see DESIGN.md and EXPERIMENTS.md):
// CPU-only wins on small inputs, 60/40-70/30 splits win on large inputs
// with 48 host threads, device-heavy splits win when the host has few
// threads, heterogeneous execution is ~1.7x faster than host-only and
// ~2x faster than device-only, host times span roughly 0.06-40 s across
// the configuration space, and the device time span is wider than the
// host one.
//
// Measurements carry deterministic, configuration-keyed noise so that the
// simulator behaves like a stable testbed: re-measuring a configuration
// reproduces the same value, while distinct configurations observe
// independent perturbations.
package perf

import (
	"fmt"
	"math"
	"slices"

	"hetopt/internal/machine"
)

// Traits describes workload-level properties that scale execution time
// independently of the assigned size. The zero value (beyond Name)
// reproduces the reference workload — the paper's DNA matching — so
// genome workloads are bit-identical to the pre-scenario-layer model.
type Traits struct {
	// Name identifies the input (e.g. the genome); it keys measurement
	// noise so distinct inputs observe distinct perturbations.
	Name string
	// Complexity multiplies execution time relative to the reference
	// input (human = 1.0). It models composition-dependent matching cost.
	Complexity float64
	// BytesPerByte, when positive, overrides Calibration.BytesPerByte:
	// the workload's memory traffic per input byte. It is the
	// arithmetic-intensity knob of the scenario layer — bandwidth-bound
	// kernels (SpMV, stencils) move several bytes per input byte and hit
	// the roofline, compute-bound kernels barely touch memory.
	BytesPerByte float64
	// HostRateFactor and DeviceRateFactor, when positive, scale the
	// per-core streaming rates relative to the reference workload (1.0).
	// They model how well the workload maps onto each side's
	// microarchitecture: an irregular-access kernel may run at a
	// fraction of the reference rate on a throughput-oriented device
	// while a vector-friendly one exceeds it.
	HostRateFactor, DeviceRateFactor float64
}

// complexityOrDefault treats a zero Complexity as 1.0 so that a zero-value
// Traits behaves like the reference workload.
func (t Traits) complexityOrDefault() float64 {
	if t.Complexity <= 0 {
		return 1
	}
	return t.Complexity
}

// factorOrDefault treats a non-positive rate factor as 1.0.
func factorOrDefault(f float64) float64 {
	if f <= 0 {
		return 1
	}
	return f
}

// bytesPerByteOr returns the workload's traffic ratio, falling back to
// the calibration default.
func (t Traits) bytesPerByteOr(def float64) float64 {
	if t.BytesPerByte > 0 {
		return t.BytesPerByte
	}
	return def
}

// Assignment is the share of work mapped to one processor together with
// the processor-local configuration.
type Assignment struct {
	// SizeMB is the amount of input assigned, in megabytes. Zero means
	// the processor is idle.
	SizeMB float64
	// Threads is the number of software threads to run.
	Threads int
	// Affinity is the pinning strategy.
	Affinity machine.Affinity
}

// Calibration collects every constant of the analytic model.
type Calibration struct {
	// HostCoreRateMBs is the single-thread streaming match rate of one
	// host core in MB/s.
	HostCoreRateMBs float64
	// HostSMTGain[k-1] is the combined throughput of one host core
	// carrying k threads, relative to one thread.
	HostSMTGain []float64
	// HostCoreScalingExp is the cross-core scaling exponent gamma for the
	// host (1.0 = perfectly linear).
	HostCoreScalingExp float64
	// HostSetupSec is the fixed host-side preparation cost (automaton
	// construction, buffer setup).
	HostSetupSec float64
	// HostThreadSpawnSec is the per-thread startup cost on the host.
	HostThreadSpawnSec float64
	// HostCompactBonus multiplies throughput under compact affinity
	// (shared-L3 locality); HostNonePenalty multiplies it under OS
	// scheduling (migrations).
	HostCompactBonus, HostNonePenalty float64

	// Device analogues of the host constants.
	DeviceCoreRateMBs    float64
	DeviceSMTGain        []float64
	DeviceCoreScalingExp float64
	DeviceSetupSec       float64
	DeviceThreadSpawnSec float64
	// DeviceBalancedBonus applies under balanced affinity when cores
	// carry at least two threads; DeviceCompactBonus under compact.
	DeviceBalancedBonus, DeviceCompactBonus float64

	// OffloadLatencySec is the fixed offload cost (runtime init, kernel
	// launch, result gather) paid whenever the device receives work.
	OffloadLatencySec float64
	// PCIeRateMBs is the effective host-device transfer rate.
	PCIeRateMBs float64
	// TransferResidual is the fraction of the transfer that cannot be
	// overlapped with device computation.
	TransferResidual float64

	// BandwidthEfficiency derates the spec memory bandwidth to an
	// achievable streaming ceiling.
	BandwidthEfficiency float64
	// BytesPerByte is the memory traffic per input byte of the workload
	// (1.0 for streaming DFA matching over resident tables).
	BytesPerByte float64

	// OversubscriptionDecay multiplies per-core gain for each thread
	// beyond the SMT width (scheduling overhead).
	OversubscriptionDecay float64

	// NoiseStdHost and NoiseStdDevice are relative standard deviations of
	// measurement noise; NoiseNoneFactor scales host noise under
	// AffinityNone. NoiseSeed decorrelates entire experiments.
	NoiseStdHost, NoiseStdDevice float64
	NoiseNoneFactor              float64
	NoiseSeed                    uint64

	// Power model (see power.go). A unit that receives work draws
	// IdleW for the whole run plus a dynamic increment while busy:
	//
	//	P_dyn = CoreActiveW * coresUsed + ThreadActiveW * threads
	//
	// scaled by HostNonePowerFactor when the OS schedules host threads
	// freely (migrations waste dynamic power). A unit with no work is
	// considered disengaged (powered down) and consumes nothing.
	HostIdleW, HostCoreActiveW, HostThreadActiveW       float64
	DeviceIdleW, DeviceCoreActiveW, DeviceThreadActiveW float64
	HostNonePowerFactor                                 float64
	// NoiseStdHostPower and NoiseStdDevicePower are the relative standard
	// deviations of energy-measurement noise, keyed like timing noise.
	NoiseStdHostPower, NoiseStdDevicePower float64
}

// DefaultCalibration returns the constants used for the reproduction.
// EXPERIMENTS.md records the resulting paper-vs-measured comparison.
func DefaultCalibration() Calibration {
	return Calibration{
		HostCoreRateMBs:    230,
		HostSMTGain:        []float64{1.0, 1.30},
		HostCoreScalingExp: 0.93,
		HostSetupSec:       0.05,
		HostThreadSpawnSec: 0.0002,
		HostCompactBonus:   1.02,
		HostNonePenalty:    0.96,

		DeviceCoreRateMBs:    44,
		DeviceSMTGain:        []float64{1.0, 1.80, 2.20, 2.40},
		DeviceCoreScalingExp: 0.97,
		DeviceSetupSec:       0.02,
		DeviceThreadSpawnSec: 0.00005,
		DeviceBalancedBonus:  1.03,
		DeviceCompactBonus:   1.02,

		OffloadLatencySec: 0.105,
		PCIeRateMBs:       6500,
		TransferResidual:  0.02,

		BandwidthEfficiency: 0.80,
		BytesPerByte:        1.0,

		OversubscriptionDecay: 0.97,

		NoiseStdHost:    0.035,
		NoiseStdDevice:  0.022,
		NoiseNoneFactor: 1.5,
		NoiseSeed:       0x9E3779B97F4A7C15,

		// Power: the host peaks near 193 W (2x 115 W TDP packages derated
		// to sustained draw), the Phi near 299 W (300 W TDP card). The
		// host delivers ~1.5x more throughput per watt, which is what
		// makes the time/energy trade-off non-trivial.
		HostIdleW:           75,
		HostCoreActiveW:     4.2,
		HostThreadActiveW:   0.35,
		DeviceIdleW:         105,
		DeviceCoreActiveW:   2.6,
		DeviceThreadActiveW: 0.16,
		HostNonePowerFactor: 1.05,

		NoiseStdHostPower:   0.015,
		NoiseStdDevicePower: 0.012,
	}
}

// Model evaluates execution times for a host/device pair. It is fixed
// once built, as the paper's testbed is: NewModel copies the processors
// and the calibration, and nothing outside the package can change them,
// so every cache built from a model stays valid for its lifetime. A
// perturbed platform is a new model built from an edited Calibration.
type Model struct {
	host, device *machine.Processor
	cal          Calibration

	// tab caches placement-derived throughput and used-core tables so
	// the evaluation hot path does lookups instead of recomputing
	// placements (see tables.go).
	tab tableCache
}

// NewModel builds a model from a platform description: host and device
// processors plus the calibration constants. It keeps copies of all
// three, so later changes to the arguments do not reach the model. The
// scenario layer (internal/scenario) constructs models from registered
// platform specs through this constructor.
func NewModel(host, device *machine.Processor, cal Calibration) *Model {
	cal.HostSMTGain = slices.Clone(cal.HostSMTGain)
	cal.DeviceSMTGain = slices.Clone(cal.DeviceSMTGain)
	return &Model{host: cloneProcessor(host), device: cloneProcessor(device), cal: cal}
}

// cloneProcessor returns a copy of p that shares no memory with it.
func cloneProcessor(p *machine.Processor) *machine.Processor {
	if p == nil {
		return nil
	}
	c := *p
	c.Affinities = slices.Clone(p.Affinities)
	return &c
}

// Calibration returns a copy of the model's calibration constants. The
// copy shares no memory with the model: editing it and passing it to
// NewModel builds a perturbed model and leaves this one as it is.
func (m *Model) Calibration() Calibration {
	c := m.cal
	c.HostSMTGain = slices.Clone(c.HostSMTGain)
	c.DeviceSMTGain = slices.Clone(c.DeviceSMTGain)
	return c
}

// Constants returns the model's scalar calibration constants: a copy of
// its calibration with the SMT-gain slices left nil. Unlike Calibration
// it allocates nothing, for code that reads a few constants per run; it
// is not a calibration to build a model from.
func (m *Model) Constants() Calibration {
	c := m.cal
	c.HostSMTGain, c.DeviceSMTGain = nil, nil
	return c
}

// Host returns a copy of the host processor description.
func (m *Model) Host() *machine.Processor { return cloneProcessor(m.host) }

// Device returns a copy of the device processor description.
func (m *Model) Device() *machine.Processor { return cloneProcessor(m.device) }

// NewPaperModel returns a model of the paper's platform (2x Xeon
// E5-2695v2 + Xeon Phi 7120P) with default calibration.
func NewPaperModel() *Model {
	return NewModel(machine.XeonE5Host(), machine.XeonPhi7120P(), DefaultCalibration())
}

// throughput computes the placement-aware streaming rate in MB/s.
func throughput(p *machine.Processor, pl machine.Placement, coreRate float64, smtGain []float64, gamma, affinityFactor, bwEff, bytesPerByte, overDecay float64) float64 {
	if pl.CoresUsed == 0 {
		return 0
	}
	gainSum := 0.0
	for i, nCores := range pl.ThreadsOnCore {
		if nCores == 0 {
			continue
		}
		k := i + 1 // threads sharing the core
		var g float64
		if k <= len(smtGain) {
			g = smtGain[k-1]
		} else {
			// Oversubscribed: flat at the last SMT gain with a decay per
			// extra thread.
			g = smtGain[len(smtGain)-1] * math.Pow(overDecay, float64(k-len(smtGain)))
		}
		gainSum += g * float64(nCores)
	}
	scale := math.Pow(float64(pl.CoresUsed), gamma-1)
	rate := coreRate * scale * gainSum * affinityFactor
	// Memory-bandwidth roofline.
	if bytesPerByte > 0 {
		ceiling := p.MemBandwidthGBs * 1000 * bwEff / bytesPerByte
		if rate > ceiling {
			rate = ceiling
		}
	}
	return rate
}

// HostThroughputFor returns the modeled host streaming rate for a thread
// count and affinity under a workload's traits: the per-core rate scales
// with HostRateFactor and the roofline with the workload's
// bytes-per-byte traffic ratio; zero-value traits give the reference
// workload's rate. Rates are served from the model's
// precomputed table (tables.go); the trait-scaled core rate and traffic
// ratio are part of the key, so distinct workloads never share an entry.
func (m *Model) HostThroughputFor(threads int, aff machine.Affinity, w Traits) (float64, error) {
	return m.rate(hostSide, threads, aff,
		m.cal.HostCoreRateMBs*factorOrDefault(w.HostRateFactor),
		w.bytesPerByteOr(m.cal.BytesPerByte))
}

// DeviceThroughputFor is the device analogue of HostThroughputFor.
func (m *Model) DeviceThroughputFor(threads int, aff machine.Affinity, w Traits) (float64, error) {
	return m.rate(deviceSide, threads, aff,
		m.cal.DeviceCoreRateMBs*factorOrDefault(w.DeviceRateFactor),
		w.bytesPerByteOr(m.cal.BytesPerByte))
}

// HostTime returns the modeled execution time in seconds of the host
// share. Its noise draw is keyed by the configuration, so measuring it
// again reproduces the identical value.
func (m *Model) HostTime(a Assignment, w Traits) (float64, error) {
	if a.SizeMB < 0 {
		return 0, fmt.Errorf("perf: negative host size %g", a.SizeMB)
	}
	if a.SizeMB == 0 {
		return 0, nil
	}
	rate, err := m.HostThroughputFor(a.Threads, a.Affinity, w)
	if err != nil {
		return 0, err
	}
	return m.hostSec(a, w.complexityOrDefault(), rate, m.noise("host", w.Name, a, m.hostSigma(a.Affinity))), nil
}

// hostSigma is the host timing noise's relative std under an affinity:
// OS scheduling (AffinityNone) widens it.
func (m *Model) hostSigma(aff machine.Affinity) float64 {
	sigma := m.cal.NoiseStdHost
	if aff == machine.AffinityNone {
		sigma *= m.cal.NoiseNoneFactor
	}
	return sigma
}

// hostSec is the host time formula: setup, thread spawn and the work
// (size times complexity cx) at the streaming rate, scaled by the noise
// factor.
func (m *Model) hostSec(a Assignment, cx, rate, noise float64) float64 {
	work := a.SizeMB * cx
	t := m.cal.HostSetupSec + m.cal.HostThreadSpawnSec*float64(a.Threads) + work/rate
	return t * noise
}

// DeviceTime returns the modeled execution time in seconds of the device
// share, including offload overhead (launch latency plus the
// non-overlapped part of the PCIe transfer).
func (m *Model) DeviceTime(a Assignment, w Traits) (float64, error) {
	if a.SizeMB < 0 {
		return 0, fmt.Errorf("perf: negative device size %g", a.SizeMB)
	}
	if a.SizeMB == 0 {
		return 0, nil
	}
	rate, err := m.DeviceThroughputFor(a.Threads, a.Affinity, w)
	if err != nil {
		return 0, err
	}
	return m.deviceSec(a, w.complexityOrDefault(), rate, m.noise("device", w.Name, a, m.cal.NoiseStdDevice)), nil
}

// deviceSec is the device time formula: the offload latency, the slower
// of compute and the overlapped PCIe transfer, and the transfer's
// non-overlapped residual, scaled by the noise factor.
func (m *Model) deviceSec(a Assignment, cx, rate, noise float64) float64 {
	work := a.SizeMB * cx
	compute := m.cal.DeviceSetupSec + m.cal.DeviceThreadSpawnSec*float64(a.Threads) + work/rate
	transfer := a.SizeMB / m.cal.PCIeRateMBs
	// Transfer overlaps computation; the slower of the two dominates and a
	// residual fraction of the transfer cannot be hidden.
	t := m.cal.OffloadLatencySec + math.Max(compute, transfer) + m.cal.TransferResidual*transfer
	return t * noise
}
