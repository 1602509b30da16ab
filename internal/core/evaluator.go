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
// configuration (see perf.Model; every run measures noise trial 0, the
// trial SharedMeasurements replays) and the effort counter is atomic,
// so sharded enumeration and concurrent annealing chains can share one
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
	return m.Platform.MeasureFull(m.Workload, cfg, 0)
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
// models (the paper's Figure 4 predictive model). Predictions are
// memoized: the deterministic mapping from configuration to features makes
// caching exact, which matters when enumeration queries 19,926
// configurations built from only ~1,800 distinct per-side inputs. The
// memo tables are concurrency-safe, so one Predictor can serve sharded
// enumeration and parallel annealing chains (chains that miss on one
// key at the same moment may both predict it; the values are equal). Searches
// (core.Run, NewSearchProblem) additionally memoize whole evaluations
// by configuration ordinal, one table per schema (evalMemo).
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

	// evalMemos holds one whole-evaluation memo per schema searched over
	// this predictor, keyed by configuration ordinal (see evalMemo).
	evalMu    sync.Mutex
	evalMemos map[*space.Schema]*search.DenseMemo[offload.Measurement]
}

// evalMemo returns the predictor's whole-evaluation memo over schema's
// ordinals, creating it on first use, or nil when the schema is too
// large for a flat table. A hit on it skips the side memos and the
// energy pricing; predictions are pure, so it changes no value.
func (p *Predictor) evalMemo(schema *space.Schema) *search.DenseMemo[offload.Measurement] {
	if schema.Size() > search.MaxDenseOrdinals {
		return nil
	}
	p.evalMu.Lock()
	defer p.evalMu.Unlock()
	m, ok := p.evalMemos[schema]
	if !ok {
		if p.evalMemos == nil {
			p.evalMemos = map[*space.Schema]*search.DenseMemo[offload.Measurement]{}
		}
		m = search.NewDenseMemo[offload.Measurement](schema.Size())
		p.evalMemos[schema] = m
	}
	return m
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
