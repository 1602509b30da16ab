// Package core implements the paper's primary contribution: determining a
// near-optimal system configuration for heterogeneous work distribution by
// combining combinatorial optimization (simulated annealing over the
// configuration space) with machine learning (boosted decision tree
// regression predicting per-side execution times).
//
// The four optimization methods of Table II are provided behind one
// interface, differing only in how they explore the space and how they
// evaluate candidate configurations:
//
//	EM    enumeration         + measurements
//	EML   enumeration         + machine learning
//	SAM   simulated annealing + measurements
//	SAML  simulated annealing + machine learning
//
// Methods that search on predictions (EML, SAML) are scored by measuring
// their suggested configuration, the paper's fair-comparison methodology
// (Section IV-C).
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
	"hetopt/internal/search"
	"hetopt/internal/space"
)

// Evaluator estimates the per-side execution times and energy of a
// configuration. Implementations: *Measurer (testbed measurements) and
// *Predictor (machine-learning predictions composed with the analytic
// power model). Both sides of the measurement come from one evaluation,
// so caches keyed on the configuration serve every objective.
type Evaluator interface {
	Evaluate(cfg space.Config) (offload.Measurement, error)
}

// Measurer evaluates configurations by (simulated) measurement and counts
// how many experiments were performed — the "effort" column of Table II.
// It is safe for concurrent use: measurement is a pure function of the
// configuration (see perf.Model) and the effort counter is atomic, so
// sharded enumeration and concurrent annealing chains can share one
// Measurer.
type Measurer struct {
	// Platform performs the measurements.
	Platform *offload.Platform
	// Workload is the input under optimization.
	Workload offload.Workload

	count atomic.Int64
}

// NewMeasurer builds a Measurer for the workload on the platform.
func NewMeasurer(p *offload.Platform, w offload.Workload) *Measurer {
	return &Measurer{Platform: p, Workload: w}
}

// Evaluate implements Evaluator by running one experiment.
func (m *Measurer) Evaluate(cfg space.Config) (offload.Measurement, error) {
	m.count.Add(1)
	return m.Platform.MeasureFull(m.Workload, cfg)
}

// Count returns the number of experiments performed so far.
func (m *Measurer) Count() int { return int(m.count.Load()) }

// Charge advances the effort counter by one without performing a
// measurement. Interposed evaluators (Instance.MeasureCache) use it to
// charge an evaluation that a cross-run memo served physically, so a
// run's Experiments stays a pure function of the run itself rather
// than of cache warmth.
func (m *Measurer) Charge() { m.count.Add(1) }

// ResetCount zeroes the experiment counter.
func (m *Measurer) ResetCount() { m.count.Store(0) }

// Feature layout shared by the host and device models: the paper trains on
// the number of threads, the thread affinity and the input size
// (Section III-B).
const (
	featThreads = iota
	featSizeMB
	featAffBase // three one-hot affinity indicators follow
	numFeatures = featAffBase + 3
)

// hostAffinityOrder fixes the one-hot encoding order per side.
var hostAffinityOrder = []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact}
var deviceAffinityOrder = []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact}

// HostFeatureNames and DeviceFeatureNames label the model inputs.
func HostFeatureNames() []string {
	return []string{"threads", "size-mb", "aff-none", "aff-scatter", "aff-compact"}
}

// DeviceFeatureNames labels the device model inputs.
func DeviceFeatureNames() []string {
	return []string{"threads", "size-mb", "aff-balanced", "aff-scatter", "aff-compact"}
}

// hostFeatures encodes one host-side sample.
func hostFeatures(threads int, aff machine.Affinity, sizeMB float64) []float64 {
	return sideFeatures(threads, aff, sizeMB, hostAffinityOrder)
}

// deviceFeatures encodes one device-side sample.
func deviceFeatures(threads int, aff machine.Affinity, sizeMB float64) []float64 {
	return sideFeatures(threads, aff, sizeMB, deviceAffinityOrder)
}

func sideFeatures(threads int, aff machine.Affinity, sizeMB float64, order []machine.Affinity) []float64 {
	x := make([]float64, numFeatures)
	x[featThreads] = float64(threads)
	x[featSizeMB] = sizeMB
	for i, a := range order {
		if a == aff {
			x[featAffBase+i] = 1
		}
	}
	return x
}

// Predictor evaluates configurations with the trained per-side regression
// models (the paper's Figure 4 predictive model). Each side is learned on
// its own, from its threads, affinity and share, so a configuration's
// prediction is two side predictions, and those are memoized: the
// deterministic mapping from configuration to features makes caching
// exact, which matters when enumeration queries 19,926 configurations
// built from only ~1,800 distinct per-side inputs. The memo tables are
// concurrency-safe, so one Predictor can serve sharded enumeration and
// parallel annealing chains (chains that miss on one key at the same
// moment may both predict it; the values are equal). A search over a
// schema (core.Run, NewSearchProblem) prices its states from the
// predictor's level table of that schema (see predLevels): per side, one
// prediction per (side level, split), not one entry per configuration.
//
// The energy side of an evaluation is not learned: predicted times are
// composed with the analytic power model (noise-free active/static power
// per unit), following the paper's split between measured behaviour and
// modeled structure.
type Predictor struct {
	models   *Models
	workload offload.Workload
	power    *perf.Model

	hostMemo *search.Memo[sideKey, float64]
	devMemo  *search.Memo[sideKey, float64]

	// levels holds one level table per schema searched over this
	// predictor (see levelTable).
	levelsMu sync.Mutex
	levels   map[*space.Schema]*predLevels
}

// levelTable returns the predictor's level table over schema, creating
// it on first use, so every search over one predictor and schema shares
// one table.
func (p *Predictor) levelTable(schema *space.Schema) *predLevels {
	p.levelsMu.Lock()
	defer p.levelsMu.Unlock()
	t, ok := p.levels[schema]
	if !ok {
		if p.levels == nil {
			p.levels = map[*space.Schema]*predLevels{}
		}
		t = p.newLevelTable(schema)
		p.levels[schema] = t
	}
	return t
}

// predLevels prices the states of one schema the way Evaluate prices
// their configurations, from two per-side tables: each side's predicted
// seconds per (side level, split), filled on first use from the
// predictor's side memos, and each side level's active power. A side
// level is a (threads, affinity) pair, threads-major. It is safe for
// concurrent use: two searches that fill one entry at the same moment
// store the same value.
type predLevels struct {
	sizeMB    float64
	fractions []float64
	host, dev predSide
}

// predSide is one side of a predLevels.
type predSide struct {
	threads []int
	affs    []machine.Affinity
	splits  int
	idleW   float64
	// power is each level's active power draw in watts, NaN where the
	// power model has none.
	power []float64
	// sec[level*splits+split] holds the predicted seconds' float64 bits;
	// 0 marks one not predicted yet (predictions are clamped to at least
	// a microsecond, so none is 0).
	sec     []atomic.Uint64
	predict func(threads int, aff machine.Affinity, sizeMB float64) (float64, error)
}

// newLevelTable builds an empty level table of schema: each side
// level's power, with no prediction made yet.
func (p *Predictor) newLevelTable(schema *space.Schema) *predLevels {
	vals := schema.Values()
	splits := len(vals.Fractions)
	cal := p.power.Constants()
	return &predLevels{
		sizeMB:    p.workload.SizeMB,
		fractions: vals.Fractions,
		host: newPredSide(vals.HostThreads, vals.HostAffinities, splits, cal.HostIdleW,
			p.power.HostActivePowerW, p.hostTime),
		dev: newPredSide(vals.DeviceThreads, vals.DeviceAffinities, splits, cal.DeviceIdleW,
			p.power.DeviceActivePowerW, p.devTime),
	}
}

// newPredSide builds one side of an empty level table, pricing each
// level's power with active; predict fills its entries on first use.
func newPredSide(threads []int, affs []machine.Affinity, splits int, idleW float64,
	active func(int, machine.Affinity) (float64, error), predict func(int, machine.Affinity, float64) (float64, error)) predSide {
	levels := len(threads) * len(affs)
	s := predSide{threads: threads, affs: affs, splits: splits, idleW: idleW, predict: predict,
		power: make([]float64, levels), sec: make([]atomic.Uint64, levels*splits)}
	for l := range s.power {
		w, err := active(threads[l/len(affs)], affs[l%len(affs)])
		if err != nil {
			w = math.NaN()
		}
		s.power[l] = w
	}
	return s
}

// level is the side level of a (threads, affinity) level pair; ok is
// false when either is out of range.
func (s *predSide) level(ti, ai int) (int, bool) {
	if uint(ti) >= uint(len(s.threads)) || uint(ai) >= uint(len(s.affs)) {
		return 0, false
	}
	return ti*len(s.affs) + ai, true
}

// seconds returns the side's predicted time at level l and split si,
// whose share is mb, predicting it on first use; ok is false when the
// prediction fails.
func (s *predSide) seconds(l, si int, mb float64) (float64, bool) {
	cell := &s.sec[l*s.splits+si]
	if b := cell.Load(); b != 0 {
		return math.Float64frombits(b), true
	}
	v, err := s.predict(s.threads[l/len(s.affs)], s.affs[l%len(s.affs)], mb)
	if err != nil {
		return 0, false
	}
	cell.Store(math.Float64bits(v))
	return v, true
}

// measure prices the schema state at level indices state with exactly
// the operations Evaluate applies to its configuration, so the result
// is bit-identical. ok is false when the table cannot price it (a state
// out of range, a failed prediction or a level without power); the
// caller then evaluates the decoded configuration, which fails with
// Evaluate's own error.
func (t *predLevels) measure(state []int) (m offload.Measurement, ok bool) {
	if len(state) != len(space.Levels{}) {
		return m, false
	}
	hl, hok := t.host.level(state[space.ParamHostThreads], state[space.ParamHostAffinity])
	dl, dok := t.dev.level(state[space.ParamDeviceThreads], state[space.ParamDeviceAffinity])
	si := state[space.ParamHostFraction]
	if !hok || !dok || uint(si) >= uint(len(t.fractions)) {
		return m, false
	}
	hostMB := t.sizeMB * t.fractions[si] / 100
	devMB := t.sizeMB - hostMB
	if hostMB > 0 {
		if m.Times.Host, ok = t.host.seconds(hl, si, hostMB); !ok {
			return m, false
		}
	}
	if devMB > 0 {
		if m.Times.Device, ok = t.dev.seconds(dl, si, devMB); !ok {
			return m, false
		}
	}
	makespan := m.Times.E()
	if hostMB > 0 {
		if math.IsNaN(t.host.power[hl]) {
			return m, false
		}
		m.Energy.Host = perf.ModeledJoules(t.host.power[hl], t.host.idleW, m.Times.Host, makespan)
	}
	if devMB > 0 {
		if math.IsNaN(t.dev.power[dl]) {
			return m, false
		}
		m.Energy.Device = perf.ModeledJoules(t.dev.power[dl], t.dev.idleW, m.Times.Device, makespan)
	}
	return m, true
}

type sideKey struct {
	threads int
	aff     machine.Affinity
	sizeMB  float64
}

// hashSideKey spreads side-memo keys over their table's slots; no
// prediction depends on it.
func hashSideKey(k sideKey) uint64 {
	return (uint64(k.threads)<<8^uint64(k.aff))*0x9E3779B97F4A7C15 ^ math.Float64bits(k.sizeMB)
}

// NewPredictor binds trained models to a workload. power is the analytic
// model whose power constants price the predicted times into joules; use
// the platform the models were trained on (Platform.Model()).
func NewPredictor(models *Models, w offload.Workload, power *perf.Model) (*Predictor, error) {
	if models == nil || models.Host == nil || models.Device == nil {
		return nil, fmt.Errorf("core: predictor needs trained host and device models")
	}
	if power == nil {
		return nil, fmt.Errorf("core: predictor needs a performance model for energy composition")
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &Predictor{
		models:   models,
		workload: w,
		power:    power,
		hostMemo: search.NewMemo[sideKey, float64](hashSideKey),
		devMemo:  search.NewMemo[sideKey, float64](hashSideKey),
	}, nil
}

// Evaluate implements Evaluator by predicting T_host and T_device and
// pricing them into energy with the power model.
func (p *Predictor) Evaluate(cfg space.Config) (offload.Measurement, error) {
	if cfg.HostFraction < 0 || cfg.HostFraction > 100 {
		return offload.Measurement{}, fmt.Errorf("core: host fraction %g outside [0,100]", cfg.HostFraction)
	}
	hostMB := p.workload.SizeMB * cfg.HostFraction / 100
	devMB := p.workload.SizeMB - hostMB
	var m offload.Measurement
	if hostMB > 0 {
		v, err := p.hostTime(cfg.HostThreads, cfg.HostAffinity, hostMB)
		if err != nil {
			return offload.Measurement{}, err
		}
		m.Times.Host = v
	}
	if devMB > 0 {
		v, err := p.devTime(cfg.DeviceThreads, cfg.DeviceAffinity, devMB)
		if err != nil {
			return offload.Measurement{}, err
		}
		m.Times.Device = v
	}
	makespan := m.Times.E()
	if hostMB > 0 {
		e, err := p.power.HostModeledEnergy(cfg.HostThreads, cfg.HostAffinity, m.Times.Host, makespan)
		if err != nil {
			return offload.Measurement{}, err
		}
		m.Energy.Host = e
	}
	if devMB > 0 {
		e, err := p.power.DeviceModeledEnergy(cfg.DeviceThreads, cfg.DeviceAffinity, m.Times.Device, makespan)
		if err != nil {
			return offload.Measurement{}, err
		}
		m.Energy.Device = e
	}
	return m, nil
}

// hostTime returns the memoized host-side prediction; only a miss runs
// the regression forest.
func (p *Predictor) hostTime(threads int, aff machine.Affinity, sizeMB float64) (float64, error) {
	return p.hostMemo.Do(sideKey{threads, aff, sizeMB}, func() (float64, error) {
		return p.models.PredictHost(threads, aff, sizeMB)
	})
}

// devTime is the device analogue of hostTime.
func (p *Predictor) devTime(threads int, aff machine.Affinity, sizeMB float64) (float64, error) {
	return p.devMemo.Do(sideKey{threads, aff, sizeMB}, func() (float64, error) {
		return p.models.PredictDevice(threads, aff, sizeMB)
	})
}
