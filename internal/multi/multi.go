// Package multi extends the paper's optimizer to platforms with several
// accelerators. The paper evaluates one Xeon Phi but motivates the
// problem with nodes carrying up to eight accelerators (Section II-A;
// Tianhe-2 nodes carry three Phis), and the configuration-space
// formulation (Equation 1) already generalizes: this package adds the
// multi-device workload split — a fraction vector over host + K devices
// summing to 100% — the generalized objectives (time = max over all
// processing units, energy = joules summed over engaged units, plus the
// weighted and time-bounded trade-offs from internal/core), and a
// simulated-annealing tuner over the extended space.
package multi

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hetopt/internal/core"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
	"hetopt/internal/strategy"
)

// Platform is a host plus K accelerators, each with its own performance
// model (device models may differ, modeling mixed accelerator
// generations).
type Platform struct {
	host    *perf.Model
	devices []*perf.Model
	names   []string
}

// NewPlatform assembles a multi-accelerator platform. host's device side
// is ignored; each devices entry contributes its device side.
func NewPlatform(host *perf.Model, names []string, devices []*perf.Model) (*Platform, error) {
	if host == nil {
		return nil, fmt.Errorf("multi: nil host model")
	}
	if len(devices) == 0 {
		return nil, fmt.Errorf("multi: need at least one device")
	}
	if len(names) != len(devices) {
		return nil, fmt.Errorf("multi: %d names for %d devices", len(names), len(devices))
	}
	for i, d := range devices {
		if d == nil {
			return nil, fmt.Errorf("multi: device %d is nil", i)
		}
	}
	return &Platform{host: host, devices: devices, names: names}, nil
}

// PaperWithPhis builds the paper's host with n identical Xeon Phi 7120P
// cards. Each card observes independent measurement noise.
func PaperWithPhis(n int) (*Platform, error) {
	if n < 1 {
		return nil, fmt.Errorf("multi: need at least one Phi, got %d", n)
	}
	host := perf.NewPaperModel()
	devices := make([]*perf.Model, n)
	names := make([]string, n)
	for i := range devices {
		// Decorrelate per-card noise: same silicon, different card.
		cal := perf.DefaultCalibration()
		cal.NoiseSeed ^= uint64(i+1) * 0x9E3779B97F4A7C15
		devices[i] = perf.NewModel(machine.XeonE5Host(), machine.XeonPhi7120P(), cal)
		names[i] = fmt.Sprintf("phi%d", i)
	}
	return NewPlatform(host, names, devices)
}

// NumDevices returns the accelerator count.
func (p *Platform) NumDevices() int { return len(p.devices) }

// DeviceName returns the display name of device i.
func (p *Platform) DeviceName(i int) string { return p.names[i] }

// Assignment configures one processing unit's share.
type Assignment struct {
	// Threads and Affinity configure the unit.
	Threads  int
	Affinity machine.Affinity
	// FractionPct is the percentage of the total workload mapped to the
	// unit.
	FractionPct float64
}

// Config is a complete multi-device system configuration.
type Config struct {
	Host    Assignment
	Devices []Assignment
}

// Validate checks the fraction simplex and unit counts. The simplex
// tolerance scales with the number of units: each fraction derived from
// float arithmetic (e.g. thirds) contributes its own rounding error, so a
// fixed epsilon would start rejecting valid configurations as K grows.
func (c Config) Validate(numDevices int) error {
	if len(c.Devices) != numDevices {
		return fmt.Errorf("multi: config has %d device assignments for %d devices", len(c.Devices), numDevices)
	}
	total := c.Host.FractionPct
	if c.Host.FractionPct < 0 {
		return fmt.Errorf("multi: negative host fraction %g", c.Host.FractionPct)
	}
	for i, d := range c.Devices {
		if d.FractionPct < 0 {
			return fmt.Errorf("multi: negative fraction %g on device %d", d.FractionPct, i)
		}
		total += d.FractionPct
	}
	tol := 1e-9 * float64(1+len(c.Devices))
	if math.Abs(total-100) > tol {
		return fmt.Errorf("multi: fractions sum to %g, want 100", total)
	}
	return nil
}

// String renders the distribution without device names (a bare Config
// does not know which platform it belongs to), e.g.
// "host 40% (48T,scatter) | 30% (240T,balanced) | 30% (240T,balanced)".
// Use Platform.FormatConfig to label each device entry with its name.
func (c Config) String() string {
	s := fmt.Sprintf("host %g%% (%dT,%s)", c.Host.FractionPct, c.Host.Threads, c.Host.Affinity)
	for _, d := range c.Devices {
		s += fmt.Sprintf(" | %g%% (%dT,%s)", d.FractionPct, d.Threads, d.Affinity)
	}
	return s
}

// FormatConfig renders the distribution with each device entry labeled
// by its platform name, e.g. "host 40% (48T,scatter) | phi0 30%
// (240T,balanced) | phi1 30% (240T,balanced)". Extra device entries
// beyond the platform's count keep an index-based label rather than
// panicking.
func (p *Platform) FormatConfig(c Config) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "host %g%% (%dT,%s)", c.Host.FractionPct, c.Host.Threads, c.Host.Affinity)
	for i, d := range c.Devices {
		name := fmt.Sprintf("dev%d", i)
		if i < len(p.names) {
			name = p.names[i]
		}
		fmt.Fprintf(&sb, " | %s %g%% (%dT,%s)", name, d.FractionPct, d.Threads, d.Affinity)
	}
	return sb.String()
}

// Times holds per-unit execution times.
type Times struct {
	Host    float64
	Devices []float64
}

// E is the generalized time objective: the maximum over all processing
// units.
func (t Times) E() float64 {
	e := t.Host
	for _, d := range t.Devices {
		if d > e {
			e = d
		}
	}
	return e
}

// Energy holds per-unit energy in joules; units with no work are
// disengaged and consume nothing.
type Energy struct {
	Host    float64
	Devices []float64
}

// Total is the generalized energy objective: joules summed over all
// engaged processing units.
func (e Energy) Total() float64 {
	total := e.Host
	for _, d := range e.Devices {
		total += d
	}
	return total
}

// Measurement is one evaluated configuration: per-unit times and
// energies from a single experiment, so any objective can be scored from
// one cached evaluation.
type Measurement struct {
	Times  Times
	Energy Energy
}

// E is the time objective of the measurement.
func (m Measurement) E() float64 { return m.Times.E() }

// Joules is the energy objective of the measurement.
func (m Measurement) Joules() float64 { return m.Energy.Total() }

// Measure evaluates a configuration on the platform and reports per-unit
// times.
func (p *Platform) Measure(w offload.Workload, cfg Config) (Times, error) {
	m, err := p.MeasureFull(w, cfg)
	return m.Times, err
}

// MeasureFull evaluates a configuration and reports both per-unit times
// and per-unit energy. Each engaged unit draws active power while its
// share runs and static power while waiting for the slowest unit.
func (p *Platform) MeasureFull(w offload.Workload, cfg Config) (Measurement, error) {
	if err := w.Validate(); err != nil {
		return Measurement{}, err
	}
	if err := cfg.Validate(p.NumDevices()); err != nil {
		return Measurement{}, err
	}
	traits := w.Traits()
	hostA := perf.Assignment{
		SizeMB:   w.SizeMB * cfg.Host.FractionPct / 100,
		Threads:  cfg.Host.Threads,
		Affinity: cfg.Host.Affinity,
	}
	out := Measurement{
		Times:  Times{Devices: make([]float64, p.NumDevices())},
		Energy: Energy{Devices: make([]float64, p.NumDevices())},
	}
	if cfg.Host.FractionPct > 0 {
		t, err := p.host.HostTime(hostA, traits)
		if err != nil {
			return Measurement{}, err
		}
		out.Times.Host = t
	}
	devA := make([]perf.Assignment, len(cfg.Devices))
	devTraits := make([]perf.Traits, len(cfg.Devices))
	for i, d := range cfg.Devices {
		devA[i] = perf.Assignment{
			SizeMB:   w.SizeMB * d.FractionPct / 100,
			Threads:  d.Threads,
			Affinity: d.Affinity,
		}
		devTraits[i] = w.Traits()
		// Per-device noise decorrelation: each card observes its own
		// perturbations, keyed by the device name.
		devTraits[i].Name = w.Name + ":" + p.names[i]
		if d.FractionPct == 0 {
			continue
		}
		t, err := p.devices[i].DeviceTime(devA[i], devTraits[i])
		if err != nil {
			return Measurement{}, err
		}
		out.Times.Devices[i] = t
	}
	makespan := out.Times.E()
	e, err := p.host.HostEnergy(hostA, traits, out.Times.Host, makespan)
	if err != nil {
		return Measurement{}, err
	}
	out.Energy.Host = e
	for i := range cfg.Devices {
		e, err := p.devices[i].DeviceEnergy(devA[i], devTraits[i], out.Times.Devices[i], makespan)
		if err != nil {
			return Measurement{}, err
		}
		out.Energy.Devices[i] = e
	}
	return out, nil
}

// Problem is the multi-device tuning problem. Its state couples the
// fraction coordinates on a simplex, so it is a strategy.Problem but
// not strategy.Spaced: only Initial/Neighbor-driven strategies
// (annealing, or a portfolio of them) can tune it.
//
// State layout: [hostThreadIdx, hostAffIdx,
// (devThreadIdx, devAffIdx) x K, unit_0 ... unit_K] where unit_i counts
// fractionUnits-ths of the workload on unit i (index 0 = host) and the
// unit counts are kept on the simplex by the neighbor move (shifting one
// unit between two random processors).
type Problem struct {
	// Platform and Workload define the measurement.
	Platform *Platform
	Workload offload.Workload
	// Value sets (Table I style).
	HostThreads      []int
	HostAffinities   []machine.Affinity
	DeviceThreads    []int
	DeviceAffinities []machine.Affinity
	// Objective selects what tuning minimizes: nil or core.TimeObjective
	// is the generalized makespan (max over units), core.EnergyObjective
	// the total joules over engaged units, and the weighted/bounded
	// objectives trade the two.
	Objective core.Objective
}

// fractionUnits is the simplex resolution: 40 units yield the paper's
// 2.5% fraction grid.
const fractionUnits = 40

// Validate checks the problem definition.
func (p *Problem) Validate() error {
	if p.Platform == nil {
		return fmt.Errorf("multi: problem needs a platform")
	}
	if err := p.Workload.Validate(); err != nil {
		return err
	}
	if len(p.HostThreads) == 0 || len(p.HostAffinities) == 0 ||
		len(p.DeviceThreads) == 0 || len(p.DeviceAffinities) == 0 {
		return fmt.Errorf("multi: empty value set in problem definition")
	}
	return nil
}

// layout helpers.
func (p *Problem) numDevices() int { return p.Platform.NumDevices() }
func (p *Problem) unitBase() int   { return 2 + 2*p.numDevices() }

// Dim returns the state-vector length.
func (p *Problem) Dim() int { return p.unitBase() + p.numDevices() + 1 }

// Initial writes a random starting state: random parameters and a
// random composition of the fraction units.
func (p *Problem) Initial(dst []int, rng *rand.Rand) {
	dst[0] = rng.Intn(len(p.HostThreads))
	dst[1] = rng.Intn(len(p.HostAffinities))
	for d := 0; d < p.numDevices(); d++ {
		dst[2+2*d] = rng.Intn(len(p.DeviceThreads))
		dst[3+2*d] = rng.Intn(len(p.DeviceAffinities))
	}
	// Random composition: drop each unit into a uniformly random bin.
	base := p.unitBase()
	for i := 0; i <= p.numDevices(); i++ {
		dst[base+i] = 0
	}
	for u := 0; u < fractionUnits; u++ {
		dst[base+rng.Intn(p.numDevices()+1)]++
	}
}

// Neighbor writes a neighbor of src into dst: half the moves perturb
// one thread/affinity parameter, half shift one fraction unit between
// two processors (keeping the composition on the simplex).
func (p *Problem) Neighbor(dst, src []int, rng *rand.Rand) {
	copy(dst, src)
	base := p.unitBase()
	if rng.Intn(2) == 0 {
		// Parameter move.
		which := rng.Intn(base)
		var levels int
		switch {
		case which == 0:
			levels = len(p.HostThreads)
		case which == 1:
			levels = len(p.HostAffinities)
		case (which-2)%2 == 0:
			levels = len(p.DeviceThreads)
		default:
			levels = len(p.DeviceAffinities)
		}
		if levels > 1 {
			nv := rng.Intn(levels - 1)
			if nv >= dst[which] {
				nv++
			}
			dst[which] = nv
		}
		return
	}
	// Fraction move: one unit from a non-empty bin to another bin.
	n := p.numDevices() + 1
	from := rng.Intn(n)
	for tries := 0; dst[base+from] == 0 && tries < 2*n; tries++ {
		from = rng.Intn(n)
	}
	if dst[base+from] == 0 {
		return
	}
	to := rng.Intn(n - 1)
	if to >= from {
		to++
	}
	dst[base+from]--
	dst[base+to]++
}

// Decode converts a state vector into a typed Config.
func (p *Problem) Decode(state []int) (Config, error) {
	if len(state) != p.Dim() {
		return Config{}, fmt.Errorf("multi: state has %d entries, want %d", len(state), p.Dim())
	}
	base := p.unitBase()
	unitPct := 100 / float64(fractionUnits)
	cfg := Config{
		Host: Assignment{
			Threads:     p.HostThreads[state[0]],
			Affinity:    p.HostAffinities[state[1]],
			FractionPct: float64(state[base]) * unitPct,
		},
	}
	for d := 0; d < p.numDevices(); d++ {
		cfg.Devices = append(cfg.Devices, Assignment{
			Threads:     p.DeviceThreads[state[2+2*d]],
			Affinity:    p.DeviceAffinities[state[3+2*d]],
			FractionPct: float64(state[base+1+d]) * unitPct,
		})
	}
	return cfg, nil
}

// objective returns the problem's objective, defaulting to the
// generalized makespan.
func (p *Problem) objective() core.Objective {
	if p.Objective == nil {
		return core.TimeObjective{}
	}
	return p.Objective
}

// Energy implements strategy.Problem by measuring the decoded
// configuration and scoring it under the problem's objective.
// Measurement is a pure function of the state and nothing memoizes
// it: every call, from every chain, measures.
func (p *Problem) Energy(state []int) (float64, error) {
	cfg, err := p.Decode(state)
	if err != nil {
		return 0, err
	}
	t, err := p.Platform.MeasureFull(p.Workload, cfg)
	if err != nil {
		return 0, err
	}
	return p.objective().Value(t.E(), t.Joules()), nil
}

// Result is the outcome of a multi-device tuning run.
type Result struct {
	Config Config
	Times  Times
	// Energy is the per-unit energy of the final measurement.
	Energy Energy
	// Objective names the objective tuning minimized and ObjectiveValue
	// is its value on the final measurement.
	Objective      string
	ObjectiveValue float64
	// Iterations counts annealing candidates summed over chains.
	Iterations int
	// Chain is the index of the winning annealing chain (0 for
	// single-chain runs).
	Chain int
}

// TuneOptions configures a TuneParallel run.
type TuneOptions struct {
	// Iterations is the per-chain candidate budget. Zero selects 2000.
	Iterations int
	// Seed is the base seed; chain i derives search.ChainSeed(Seed, i).
	Seed int64
	// Restarts is the number of independent annealing chains. Zero or
	// one runs a single chain, reproducing Tune exactly.
	Restarts int
	// Parallelism caps the number of chains annealing concurrently. The
	// result is identical at any parallelism level.
	Parallelism int
}

// Tune runs simulated annealing over the multi-device space and returns
// the best configuration with its measurement.
func Tune(p *Problem, iterations int, seed int64) (Result, error) {
	return TuneParallel(p, TuneOptions{Iterations: iterations, Seed: seed})
}

// TuneParallel runs one or more simulated-annealing chains on the
// paper schedule over the multi-device space and returns the best
// configuration with its measurement. Each chain measures every state
// it evaluates, revisits included. For fixed (Seed, Restarts) the
// result is bit-identical at every Parallelism level.
func TuneParallel(p *Problem, opt TuneOptions) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	iterations := opt.Iterations
	if iterations <= 0 {
		iterations = 2000
	}
	res, err := strategy.DefaultAnneal().Minimize(p, strategy.Options{
		Budget:      iterations,
		Seed:        opt.Seed,
		Restarts:    opt.Restarts,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return Result{}, err
	}
	cfg, err := p.Decode(res.Best)
	if err != nil {
		return Result{}, err
	}
	meas, err := p.Platform.MeasureFull(p.Workload, cfg)
	if err != nil {
		return Result{}, err
	}
	obj := p.objective()
	return Result{
		Config:         cfg,
		Times:          meas.Times,
		Energy:         meas.Energy,
		Objective:      obj.Name(),
		ObjectiveValue: obj.Value(meas.E(), meas.Joules()),
		Iterations:     res.Evaluations - res.Workers,
		Chain:          res.Worker,
	}, nil
}

// PaperProblem builds the multi-device tuning problem over the paper's
// Table I value sets for a platform with n Phi cards.
func PaperProblem(n int, w offload.Workload) (*Problem, error) {
	platform, err := PaperWithPhis(n)
	if err != nil {
		return nil, err
	}
	return &Problem{
		Platform:         platform,
		Workload:         w,
		HostThreads:      []int{2, 6, 12, 24, 36, 48},
		HostAffinities:   []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact},
		DeviceThreads:    []int{2, 4, 8, 16, 30, 60, 120, 180, 240},
		DeviceAffinities: []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact},
	}, nil
}
