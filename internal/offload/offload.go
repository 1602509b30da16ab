// Package offload is the heterogeneous offload runtime of the
// reproduction: it takes a system configuration (space.Config), splits a
// divisible workload between the host CPUs and the accelerator according
// to the configured fraction, and reports per-side execution times with
// the paper's objective E = max(T_host, T_device) (Equation 2) together
// with per-side energy from the calibrated power model (MeasureFull). The
// offloaded share runs concurrently with the host share, mirroring the
// paper's use of the Intel offload programming model with overlapped
// host/device execution.
//
// Measure is the "testbed" path: execution time comes from the
// calibrated perf.Model (see DESIGN.md on hardware substitution), so
// paper-scale multi-gigabyte runs are evaluated in microseconds. The
// real-computation path, which runs the DNA matching engine over the
// input bytes and reports real match counts with these modeled times,
// is parem.Execute, next to the kernels it runs.
package offload

import (
	"fmt"
	"math"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

// Times holds the per-side execution times of one run, in seconds.
type Times struct {
	Host, Device float64
}

// E is the paper's objective function (Equation 2):
// E = max(T_host, T_device).
func (t Times) E() float64 {
	return math.Max(t.Host, t.Device)
}

// Energy holds the per-side energy consumption of one run, in joules.
// A side that received no work is disengaged and consumes nothing; an
// engaged side draws static power for the whole run (it cannot sleep
// while the other side still computes) plus dynamic power while busy.
type Energy struct {
	Host, Device float64
}

// Total is the energy objective: joules consumed across all engaged
// processing units.
func (e Energy) Total() float64 {
	return e.Host + e.Device
}

// Measurement is the complete outcome of evaluating one configuration:
// per-side times and per-side energy, composed from a single experiment
// so that caching by configuration remains exact for every objective.
type Measurement struct {
	Times  Times
	Energy Energy
}

// E is the time objective, max(T_host, T_device).
func (m Measurement) E() float64 { return m.Times.E() }

// Joules is the energy objective, the total across engaged units.
func (m Measurement) Joules() float64 { return m.Energy.Total() }

// Workload identifies a divisible input. The fields beyond Name, SizeMB
// and Complexity are the scenario layer's workload-family traits; their
// zero values reproduce the paper's DNA workload behaviour exactly.
type Workload struct {
	// Name keys measurement noise and reports.
	Name string
	// SizeMB is the total input size in megabytes.
	SizeMB float64
	// Complexity is the matching-cost multiplier (1.0 = human genome).
	Complexity float64
	// BytesPerByte, when positive, is the workload's memory traffic per
	// input byte (overrides the platform calibration's default of 1.0) —
	// the arithmetic-intensity knob of scenario workload families.
	BytesPerByte float64
	// HostRateFactor and DeviceRateFactor, when positive, scale the
	// per-core streaming rates relative to the reference workload (1.0),
	// modeling how well the kernel maps onto each side.
	HostRateFactor, DeviceRateFactor float64
}

// GenomeWorkload converts a dna.Genome into a Workload.
func GenomeWorkload(g dna.Genome) Workload {
	return Workload{Name: g.Name, SizeMB: g.SizeMB, Complexity: g.Complexity}
}

// Scaled returns a copy of the workload with the size replaced; used to
// evaluate motivational scenarios such as the paper's 190 MB experiment.
func (w Workload) Scaled(sizeMB float64) Workload {
	w.SizeMB = sizeMB
	return w
}

// Traits converts the workload to the perf model's view; consumers that
// price throughput directly (e.g. the dynamic-scheduling baseline) must
// pass it so workload families keep their compute/bandwidth signature.
func (w Workload) Traits() perf.Traits {
	return perf.Traits{
		Name:             w.Name,
		Complexity:       w.Complexity,
		BytesPerByte:     w.BytesPerByte,
		HostRateFactor:   w.HostRateFactor,
		DeviceRateFactor: w.DeviceRateFactor,
	}
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("offload: workload needs a name")
	}
	if w.SizeMB <= 0 {
		return fmt.Errorf("offload: workload %q size %g must be positive", w.Name, w.SizeMB)
	}
	return nil
}

// Platform couples the host/device performance model with validation
// logic. The zero value is not usable; construct with NewPlatform.
type Platform struct {
	model *perf.Model
}

// NewPlatform returns the paper's platform (2x Xeon E5 + Xeon Phi 7120P)
// with default calibration.
func NewPlatform() *Platform {
	return &Platform{model: perf.NewPaperModel()}
}

// NewPlatformWithModel wraps a custom performance model (used by tests and
// by the custom-machine example).
func NewPlatformWithModel(m *perf.Model) *Platform {
	return &Platform{model: m}
}

// Model exposes the underlying performance model (calibration knobs).
func (p *Platform) Model() *perf.Model { return p.model }

// Host and Device expose the processor descriptions.
func (p *Platform) Host() *machine.Processor   { return p.model.Host }
func (p *Platform) Device() *machine.Processor { return p.model.Device }

// split returns the host and device share sizes in MB.
func split(w Workload, cfg space.Config) (hostMB, devMB float64, err error) {
	if cfg.HostFraction < 0 || cfg.HostFraction > 100 {
		return 0, 0, fmt.Errorf("offload: host fraction %g outside [0,100]", cfg.HostFraction)
	}
	hostMB = w.SizeMB * cfg.HostFraction / 100
	devMB = w.SizeMB - hostMB
	return hostMB, devMB, nil
}

// Measure returns the modeled execution times of running workload w under
// configuration cfg. trial selects the measurement-noise draw; repeated
// measurements with equal trial reproduce identical values (a stable
// testbed), different trials model re-runs.
func (p *Platform) Measure(w Workload, cfg space.Config, trial int) (Times, error) {
	m, err := p.MeasureFull(w, cfg, trial)
	return m.Times, err
}

// MeasureFull is Measure extended with the energy dimension: one
// experiment yields both the per-side times and the per-side energy, so
// every objective can be scored from a single cached evaluation. Energy
// accounting: each engaged unit draws its active power while its share
// runs and its static power while it waits for the other side to finish
// (the makespan); a unit with no work consumes nothing.
func (p *Platform) MeasureFull(w Workload, cfg space.Config, trial int) (Measurement, error) {
	if err := w.Validate(); err != nil {
		return Measurement{}, err
	}
	hostMB, devMB, err := split(w, cfg)
	if err != nil {
		return Measurement{}, err
	}
	hostA := perf.Assignment{SizeMB: hostMB, Threads: cfg.HostThreads, Affinity: cfg.HostAffinity}
	devA := perf.Assignment{SizeMB: devMB, Threads: cfg.DeviceThreads, Affinity: cfg.DeviceAffinity}
	var m Measurement
	if hostMB > 0 {
		m.Times.Host, err = p.model.HostTime(hostA, w.Traits(), trial)
		if err != nil {
			return Measurement{}, err
		}
	}
	if devMB > 0 {
		m.Times.Device, err = p.model.DeviceTime(devA, w.Traits(), trial)
		if err != nil {
			return Measurement{}, err
		}
	}
	makespan := m.Times.E()
	m.Energy.Host, err = p.model.HostEnergy(hostA, w.Traits(), trial, m.Times.Host, makespan)
	if err != nil {
		return Measurement{}, err
	}
	m.Energy.Device, err = p.model.DeviceEnergy(devA, w.Traits(), trial, m.Times.Device, makespan)
	if err != nil {
		return Measurement{}, err
	}
	return m, nil
}

// MeasureTable measures one workload at the levels of one schema through
// a perf.LevelTable: per-level rates, used cores and noise-key states
// are derived once, so a measurement costs its formulas and little
// else. Every measurement is bit-identical to MeasureFull on the
// decoded configuration, which it falls back to whenever the table
// cannot serve it (an invalid workload, a failing level, or a model
// mutated since the table was built). It is safe for concurrent use.
type MeasureTable struct {
	p      *Platform
	w      Workload
	schema *space.Schema
	t      *perf.LevelTable // nil when the workload is invalid
}

// NewMeasureTable builds the measurement table of workload w over
// schema on the platform.
func (p *Platform) NewMeasureTable(w Workload, schema *space.Schema) *MeasureTable {
	mt := &MeasureTable{p: p, w: w, schema: schema}
	if w.Validate() != nil {
		return mt
	}
	lv := perf.Levels{
		HostThreads:      schema.HostThreadValues(),
		HostAffinities:   schema.HostAffinityValues(),
		DeviceThreads:    schema.DeviceThreadValues(),
		DeviceAffinities: schema.DeviceAffinityValues(),
	}
	for _, f := range schema.FractionValues() {
		hostMB, devMB, _ := split(w, space.Config{HostFraction: f})
		lv.HostMB = append(lv.HostMB, hostMB)
		lv.DeviceMB = append(lv.DeviceMB, devMB)
	}
	mt.t = p.model.NewLevelTable(w.Traits(), lv)
	return mt
}

// NewDraws returns an empty cache of the table's trial-0 noise draws
// for one run to pass to MeasureLevels, or nil when the table measures
// nothing itself (an invalid workload).
func (mt *MeasureTable) NewDraws() *perf.Draws {
	if mt.t == nil {
		return nil
	}
	return mt.t.NewDraws()
}

// MeasureLevels measures the schema configuration at level indices lv,
// which must address one of its states, under noise trial 0:
// MeasureFull(w, schema.Config(lv), 0), bit for bit. Its noise draws
// come from d, a cache from NewDraws of this table (nil, or a cache of
// another table, draws them afresh). The level table measures it when
// it can serve lv, MeasureFull otherwise.
func (mt *MeasureTable) MeasureLevels(lv space.Levels, d *perf.Draws) (Measurement, error) {
	if m, ok := mt.fromTable(lv, d); ok {
		return m, nil
	}
	cfg, err := mt.schema.Config(lv[:])
	if err != nil {
		return Measurement{}, err
	}
	return mt.p.MeasureFull(mt.w, cfg, 0)
}

// fromTable measures the configuration at level indices lv through
// the level table; ok is false when the table cannot serve it.
func (mt *MeasureTable) fromTable(lv space.Levels, d *perf.Draws) (Measurement, bool) {
	if mt.t == nil {
		return Measurement{}, false
	}
	s, ok := mt.t.Measure(lv[space.ParamHostThreads], lv[space.ParamHostAffinity],
		lv[space.ParamDeviceThreads], lv[space.ParamDeviceAffinity], lv[space.ParamHostFraction], d)
	if !ok {
		return Measurement{}, false
	}
	return Measurement{
		Times:  Times{Host: s.HostSec, Device: s.DeviceSec},
		Energy: Energy{Host: s.HostJ, Device: s.DeviceJ},
	}, true
}
