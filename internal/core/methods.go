package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"hetopt/internal/offload"
	"hetopt/internal/search"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// Method identifies one of the paper's four optimization methods
// (Table II).
type Method int

const (
	// EM is Enumeration and Measurements: certainly optimal, very high
	// effort.
	EM Method = iota
	// EML is Enumeration and Machine Learning.
	EML
	// SAM is Simulated Annealing and Measurements.
	SAM
	// SAML is Simulated Annealing and Machine Learning — the paper's
	// proposed approach.
	SAML
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case EM:
		return "EM"
	case EML:
		return "EML"
	case SAM:
		return "SAM"
	case SAML:
		return "SAML"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod converts a name ("em", "SAML", ...) into a Method.
func ParseMethod(s string) (Method, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "EM":
		return EM, nil
	case "EML":
		return EML, nil
	case "SAM":
		return SAM, nil
	case "SAML":
		return SAML, nil
	default:
		return 0, fmt.Errorf("core: unknown method %q (want EM, EML, SAM or SAML)", s)
	}
}

// UsesAnnealing reports whether the method's preset explorer is SA.
func (m Method) UsesAnnealing() bool { return m == SAM || m == SAML }

// UsesML reports whether the method evaluates with predictions.
func (m Method) UsesML() bool { return m == EML || m == SAML }

// Instance bundles everything a method run needs.
type Instance struct {
	// Schema is the configuration space.
	Schema *space.Schema
	// Measurer provides ground-truth measurements (and counts effort).
	Measurer *Measurer
	// Predictor provides ML evaluations; required for EML and SAML.
	Predictor *Predictor
	// MeasureCache, when non-nil, interposes a memoizing evaluator in
	// front of Measurer for every measurement the run performs — the
	// search-time evaluations of EM/SAM and the final fair-comparison
	// measurement alike. It must charge this instance's Measurer for
	// the experiments the run pays (a SharedMeasurements view of it
	// does), so Experiments stays the run's own effort. Measurements
	// are pure functions of the configuration, so interposing a memo
	// never changes a returned value, only how often the experiment is
	// physically run; nil measures directly.
	MeasureCache Evaluator
}

// measureEvaluator returns the evaluator used for measurements: the
// interposed cache when present, the raw measurer otherwise.
func (inst *Instance) measureEvaluator() Evaluator {
	if inst.MeasureCache != nil {
		return inst.MeasureCache
	}
	return inst.Measurer
}

// Validate checks the instance against the method's needs.
func (inst *Instance) Validate(m Method) error {
	if inst == nil || inst.Schema == nil {
		return fmt.Errorf("core: instance needs a schema")
	}
	if inst.Measurer == nil {
		return fmt.Errorf("core: instance needs a measurer (final configurations are always measured)")
	}
	if m.UsesML() && inst.Predictor == nil {
		return fmt.Errorf("core: method %v needs a predictor", m)
	}
	return nil
}

// Options tunes a method run. The zero value is usable.
type Options struct {
	// Iterations is the search evaluation budget per worker (an
	// annealing chain's candidate count, a heuristic restart's
	// evaluation budget — whichever strategy explores; exhaustive
	// enumeration ignores it). Zero selects 1000, the budget the paper
	// highlights as "only about 5% of the total possible
	// configurations".
	Iterations int
	// Seed drives the strategy's stochastic choices; worker i derives
	// search.ChainSeed(Seed, i).
	Seed int64
	// InitialTemp overrides the SA starting temperature of the annealing
	// preset (zero selects DefaultInitialTemp). The stop temperature is
	// derived as InitialTemp/TempSpan, preserving the paper's schedule
	// shape (T: 10^4 -> 1) rescaled to seconds-valued energies. Ignored
	// when Strategy is injected.
	InitialTemp float64
	// NeighborMode selects the neighborhood structure used by
	// Initial/Neighbor-driven strategies (SA).
	NeighborMode space.NeighborMode
	// Parallelism is the worker count of the concurrent search engine:
	// enumeration shards into that many ordinal ranges, annealing and
	// the heuristic strategies fan that many workers out (capped at
	// Restarts). Results are bit-identical at every parallelism level
	// for a fixed Seed; zero or one runs sequentially.
	Parallelism int
	// Restarts is the number of independent search workers K: annealing
	// chains for SAM/SAML, restarts for the heuristic strategies
	// (ignored by enumeration). Each worker runs the full Iterations
	// budget from a seed derived from (Seed, worker); the best worker
	// wins, ties broken by the lowest index. Workers share a memoizing
	// evaluation cache, so configurations visited by several workers
	// cost one experiment. Zero or one reproduces the single-worker
	// behavior exactly.
	Restarts int
	// Objective selects what the search minimizes: the paper's makespan
	// (nil or TimeObjective), total joules (EnergyObjective), a weighted
	// sum, or energy under a time bound. Every method evaluates a
	// configuration once and scores times and energy from that single
	// evaluation, so the determinism contract holds for every objective.
	Objective Objective
	// Strategy injects the search strategy. Nil selects the method's
	// preset — exhaustive enumeration for EM/EML, the paper's simulated
	// annealing for SAM/SAML — keeping the four paper methods
	// bit-identical to their pre-strategy-layer behavior. Any
	// strategy.Strategy (including a racing strategy.Portfolio) can be
	// injected to explore the same space under the same objective and
	// evaluator.
	Strategy strategy.Strategy
}

// DefaultInitialTemp is the SA starting temperature for seconds-scale
// energies. The paper anneals from 10^4 down to 1; our objective is
// measured in seconds (0.1-40) rather than the milliseconds-scale numbers
// that schedule implies, so the same 10^4 dynamic range is anchored at 5.
const DefaultInitialTemp = strategy.DefaultInitialTemp

// TempSpan is the ratio between initial and stop temperature (10^4, the
// paper's 10000 -> "T < 1" span).
const TempSpan = strategy.TempSpan

func (o Options) iterations() int {
	if o.Iterations <= 0 {
		return 1000
	}
	return o.Iterations
}

func (o Options) objective() Objective {
	if o.Objective == nil {
		return TimeObjective{}
	}
	return o.Objective
}

// strategyFor resolves the search strategy of a run: the injected one,
// or the method's preset (EM/EML enumerate, SAM/SAML anneal with the
// run's temperature override).
func (o Options) strategyFor(m Method) strategy.Strategy {
	if o.Strategy != nil {
		return o.Strategy
	}
	if m.UsesAnnealing() {
		t0 := o.InitialTemp
		if t0 == 0 {
			t0 = DefaultInitialTemp
		}
		return strategy.Anneal{InitialTemp: t0, StopTemp: t0 / TempSpan}
	}
	return strategy.Exhaustive{}
}

// ParseStrategy converts a CLI-style strategy name into a Strategy with
// the core presets ("anneal" is the paper schedule, "portfolio" races
// the annealer against all four alternative metaheuristics). The empty
// name (or "auto") returns nil, selecting each method's preset.
func ParseStrategy(name string) (strategy.Strategy, error) {
	return strategy.Parse(name)
}

// Result reports a completed optimization run.
type Result struct {
	// Method that produced the result.
	Method Method
	// Config is the suggested system configuration.
	Config space.Config
	// SearchE is the objective value of Config under the evaluator the
	// search used (measurements for EM/SAM, predictions for EML/SAML).
	SearchE float64
	// Measured holds the fair-comparison measurement of Config and
	// MeasuredE its time objective (Equation 2).
	Measured offload.Times
	// MeasuredEnergy is the per-side energy of the fair-comparison
	// measurement; MeasuredJ is its total.
	MeasuredEnergy offload.Energy
	// Objective names the objective the search minimized and
	// MeasuredObjective is its value on the fair-comparison measurement.
	Objective         string
	MeasuredObjective float64
	// SearchEvaluations counts evaluator calls during the search.
	SearchEvaluations int
	// Experiments counts physical measurements consumed, including the
	// final fair-comparison measurement.
	Experiments int
	// Cert carries the optimality certificate when the search strategy
	// produced one (the exact branch-and-bound strategy, or a portfolio
	// it won); nil for purely heuristic runs. Read it through
	// Certificate() rather than nil-checking the field.
	Cert *strategy.Certificate
	// Pool is the diverse near-optimal configuration pool of an exact
	// run with a positive pool size, decoded into configurations and
	// sorted by objective value; Pool[0] is the suggested optimum. Empty
	// for heuristic runs.
	Pool []PoolConfig
}

// PoolConfig is one member of the diverse solution pool: a decoded
// configuration with its search-objective value.
type PoolConfig struct {
	// Config is the decoded configuration.
	Config space.Config
	// Objective is its value under the evaluator the search used.
	Objective float64
}

// Certificate returns the run's optimality certificate; ok is false when
// the strategy certified nothing (every heuristic run).
func (r Result) Certificate() (strategy.Certificate, bool) {
	if r.Cert == nil {
		return strategy.Certificate{}, false
	}
	return *r.Cert, true
}

// MeasuredE is the measured time objective (makespan) of the suggested
// configuration.
func (r Result) MeasuredE() float64 { return r.Measured.E() }

// MeasuredJ is the measured energy in joules of the suggested
// configuration.
func (r Result) MeasuredJ() float64 { return r.MeasuredEnergy.Total() }

// Run executes one optimization method on the instance.
func Run(m Method, inst *Instance, opt Options) (Result, error) {
	switch m {
	case EM, EML, SAM, SAML:
	default:
		return Result{}, fmt.Errorf("core: unknown method %v", m)
	}
	if err := inst.Validate(m); err != nil {
		return Result{}, err
	}
	startCount := inst.Measurer.Count()
	var evalSet Evaluator
	if m.UsesML() {
		evalSet = inst.Predictor
	} else {
		evalSet = inst.measureEvaluator()
	}

	obj := opt.objective()
	sp := newSearchProblem(inst.Schema, evalSet, obj, opt.NeighborMode)
	var prob strategy.Spaced = sp
	if !m.UsesML() {
		// Measurement-path runs get the roofline pruning oracle so the
		// exact strategy (standalone or inside a portfolio) can prune;
		// prediction-path runs stay bound-free (see bound.go).
		prob = withRooflineBound(sp, inst.Measurer.Platform, inst.Measurer.Workload)
	}
	best, sres, err := searchWith(opt.strategyFor(m), prob, inst.Schema, opt)
	if err != nil {
		return Result{}, err
	}
	pool, err := decodePool(inst.Schema, sres.PoolEntries())
	if err != nil {
		return Result{}, err
	}

	// Fair comparison: measure the suggested configuration. For
	// measurement-driven methods this re-measures the same trial, which
	// reproduces the identical value at no extra information.
	measured, err := inst.measureEvaluator().Evaluate(best)
	if err != nil {
		return Result{}, fmt.Errorf("core: measuring suggested configuration: %w", err)
	}
	return Result{
		Method:            m,
		Config:            best,
		SearchE:           sres.BestEnergy,
		Measured:          measured.Times,
		MeasuredEnergy:    measured.Energy,
		Objective:         obj.Name(),
		MeasuredObjective: objectiveValue(obj, measured),
		SearchEvaluations: sres.Evaluations,
		Experiments:       inst.Measurer.Count() - startCount,
		Cert:              sres.Cert,
		Pool:              pool,
	}, nil
}

// decodePool converts the strategy layer's index-vector pool into
// configurations.
func decodePool(schema *space.Schema, entries []strategy.PoolEntry) ([]PoolConfig, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	pool := make([]PoolConfig, len(entries))
	for i, e := range entries {
		cfg, err := schema.Config(e.State)
		if err != nil {
			return nil, err
		}
		pool[i] = PoolConfig{Config: cfg, Objective: e.Energy}
	}
	return pool, nil
}

// NewSearchProblem adapts a configuration space, an evaluator and an
// objective (nil selects the paper's time objective) to
// strategy.Problem — and strategy.Spaced: a schema is a full product
// space. Run builds one internally for every method; it is exported so
// experiment drivers and refinement wrappers reuse the same adapter
// instead of growing copies.
func NewSearchProblem(schema *space.Schema, eval Evaluator, obj Objective, mode space.NeighborMode) strategy.Spaced {
	if obj == nil {
		obj = TimeObjective{}
	}
	return newSearchProblem(schema, eval, obj, mode)
}

// newSearchProblem builds the adapter, wiring a predictor's
// whole-evaluation ordinal memo in front of it.
func newSearchProblem(schema *space.Schema, eval Evaluator, obj Objective, mode space.NeighborMode) *searchProblem {
	p := &searchProblem{schema: schema, eval: eval, mode: mode, obj: obj}
	if pred, ok := eval.(*Predictor); ok {
		p.dense = pred.evalMemo(schema)
	}
	return p
}

// searchProblem is stateless — Energy is a pure function of the state —
// so every worker of every strategy can share one instance.
type searchProblem struct {
	schema *space.Schema
	eval   Evaluator
	mode   space.NeighborMode
	obj    Objective
	// dense, when non-nil, memoizes eval's measurements by the state's
	// ordinal (a predictor's whole-evaluation memo over schema).
	dense *search.DenseMemo[offload.Measurement]
}

func (p *searchProblem) Dim() int { return p.schema.Space().Dim() }

func (p *searchProblem) Levels(i int) int { return p.schema.Space().Params[i].Levels() }

func (p *searchProblem) Initial(dst []int, rng *rand.Rand) {
	copy(dst, p.schema.Space().Random(rng))
}

func (p *searchProblem) Neighbor(dst, src []int, rng *rand.Rand) {
	p.schema.Space().Neighbor(dst, src, rng, p.mode)
}

func (p *searchProblem) Energy(state []int) (float64, error) {
	m, err := p.measure(state)
	if err != nil {
		return 0, err
	}
	return objectiveValue(p.obj, m), nil
}

// measure evaluates a state, through the ordinal memo when there is one.
func (p *searchProblem) measure(state []int) (offload.Measurement, error) {
	if p.dense != nil {
		if ord, err := p.schema.Space().Flatten(state); err == nil {
			if v, ok, err := p.dense.Get(ord); ok {
				return v, err
			}
			return p.dense.Do(ord, func() (offload.Measurement, error) {
				return p.evaluate(state)
			})
		}
	}
	return p.evaluate(state)
}

// evaluate decodes a state and runs the evaluator on it.
func (p *searchProblem) evaluate(state []int) (offload.Measurement, error) {
	cfg, err := p.schema.Config(state)
	if err != nil {
		return offload.Measurement{}, err
	}
	return p.eval.Evaluate(cfg)
}

// searchWith runs a strategy over the adapted problem and decodes the
// winner; the full strategy result rides along so certificate and pool
// survive into core.Result.
func searchWith(strat strategy.Strategy, p strategy.Spaced, schema *space.Schema, opt Options) (space.Config, strategy.Result, error) {
	res, err := strat.Minimize(p, strategy.Options{
		Budget:      opt.iterations(),
		Seed:        opt.Seed,
		Restarts:    opt.Restarts,
		Parallelism: opt.Parallelism,
	})
	if err != nil {
		return space.Config{}, strategy.Result{}, err
	}
	cfg, err := schema.Config(res.Best)
	if err != nil {
		return space.Config{}, strategy.Result{}, err
	}
	return cfg, res, nil
}

// HostOnlyBaseline measures the paper's CPU-only baseline: all host
// threads (the schema's maximum), fraction 100, best affinity by
// measurement.
func HostOnlyBaseline(inst *Instance) (Result, error) { return sideOnlyBaseline(inst, true) }

// DeviceOnlyBaseline measures the accelerator-only baseline: all device
// threads, fraction 0, best affinity by measurement.
func DeviceOnlyBaseline(inst *Instance) (Result, error) { return sideOnlyBaseline(inst, false) }

// sideOnlyBaseline gives all work to one side (the host when host is
// true) at both sides' maximum thread counts, measures every affinity
// of that side and keeps the best; the idle side sits at its first
// affinity.
func sideOnlyBaseline(inst *Instance, host bool) (Result, error) {
	if err := inst.Validate(EM); err != nil {
		return Result{}, err
	}
	base := space.Config{
		HostThreads: maxInt(inst.Schema.HostThreadValues()), HostAffinity: inst.Schema.HostAffinityValues()[0],
		DeviceThreads: maxInt(inst.Schema.DeviceThreadValues()), DeviceAffinity: inst.Schema.DeviceAffinityValues()[0],
	}
	affs := inst.Schema.DeviceAffinityValues()
	if host {
		base.HostFraction = 100
		affs = inst.Schema.HostAffinityValues()
	}
	bestE := math.Inf(1)
	var best space.Config
	var bestT offload.Measurement
	for _, aff := range affs {
		cfg := base
		if host {
			cfg.HostAffinity = aff
		} else {
			cfg.DeviceAffinity = aff
		}
		t, err := inst.measureEvaluator().Evaluate(cfg)
		if err != nil {
			return Result{}, err
		}
		if t.E() < bestE {
			bestE, best, bestT = t.E(), cfg, t
		}
	}
	return Result{Method: EM, Config: best, SearchE: bestE,
		Measured: bestT.Times, MeasuredEnergy: bestT.Energy,
		Objective: TimeObjective{}.Name(), MeasuredObjective: bestE,
		SearchEvaluations: len(affs),
		Experiments:       len(affs)}, nil
}

func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
