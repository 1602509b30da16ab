// Package hetopt is the public API of the reproduction of "Combinatorial
// Optimization of Work Distribution on Heterogeneous Systems" (Memeti &
// Pllana, ICPP Workshops 2016).
//
// The library determines a near-optimal system configuration — host and
// device thread counts, thread affinities, and the host/device workload
// fraction — for divisible workloads on heterogeneous platforms, by
// combining simulated annealing over the discrete configuration space
// with boosted-decision-tree regression models that predict per-side
// execution times. The default objective is the paper's
// E = max(T_host, T_device); a calibrated power model extends it to
// energy-aware bi-objective tuning.
//
// Quick start:
//
//	tuner := hetopt.NewTuner()
//	if err := tuner.Train(); err != nil { ... }
//	res, err := tuner.TuneGenome(hetopt.Human, hetopt.SAML, hetopt.Options{Iterations: 1000})
//	fmt.Println(res.Config, res.MeasuredE())
//
// Energy-aware tuning selects a different point on the time/energy
// front — on the paper platform the energy optimum keeps the work on
// the host and powers the accelerator down, trading ~1.6x the makespan
// for ~36% less energy (cmd/hetopt exposes the same choice as
// "-objective energy" or "-objective weighted -alpha 0.5"):
//
//	res, err = tuner.TuneGenome(hetopt.Human, hetopt.SAML, hetopt.Options{
//		Iterations: 1000,
//		Objective:  hetopt.EnergyObjective{},
//	})
//	fmt.Println(res.Config, res.MeasuredJ(), "J")
//
// The package re-exports what its examples and README use: the
// configuration space (Schema), the platform simulator (Platform), the
// finite-automata matching engine (CompileMotifs, and Execute for a real
// run of a configuration), the four optimization methods (EM, EML, SAM,
// SAML) with their strategies and objectives, the scenario registry and
// the embeddable tuning service. The internal packages documented in
// DESIGN.md provide the full substrate.
package hetopt

import (
	"fmt"

	"hetopt/internal/automata"
	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/multi"
	"hetopt/internal/offload"
	"hetopt/internal/parem"
	"hetopt/internal/perf"
	"hetopt/internal/scenario"
	"hetopt/internal/serve"
	"hetopt/internal/space"
	"hetopt/internal/strategy"
)

// Re-exported core types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Config is one point of the configuration space: thread counts,
	// affinities and the host workload fraction.
	Config = space.Config
	// Schema is the discrete configuration space (Table I).
	Schema = space.Schema
	// SchemaSpec declares a custom configuration space.
	SchemaSpec = space.SchemaSpec
	// Affinity is a thread pinning strategy.
	Affinity = machine.Affinity
	// Processor describes one processing unit's hardware.
	Processor = machine.Processor
	// Platform couples the host and device performance models and
	// executes (or simulates) runs.
	Platform = offload.Platform
	// Workload is a divisible input.
	Workload = offload.Workload
	// Objective selects what a search minimizes (time, energy, or a
	// trade-off); see TimeObjective and friends.
	Objective = core.Objective
	// TimeObjective is the paper's makespan objective (the default).
	TimeObjective = core.TimeObjective
	// EnergyObjective minimizes total joules across engaged units.
	EnergyObjective = core.EnergyObjective
	// WeightedSumObjective minimizes alpha*T + (1-alpha)*E/(50 W).
	WeightedSumObjective = core.WeightedSumObjective
	// TimeBoundedObjective minimizes energy subject to a makespan bound.
	TimeBoundedObjective = core.TimeBoundedObjective
	// Method is one of the four optimization methods.
	Method = core.Method
	// Options tunes an optimization run.
	Options = core.Options
	// Strategy is a pluggable search strategy over the configuration
	// space (set via Options.Strategy; nil keeps the method presets).
	Strategy = strategy.Strategy
	// AnnealStrategy is the paper's simulated annealing as an injectable
	// strategy; ExhaustiveStrategy enumerates; GeneticStrategy,
	// TabuStrategy, LocalStrategy and RandomStrategy port the
	// alternative metaheuristics; PortfolioStrategy races any member set
	// over a shared evaluation cache.
	AnnealStrategy     = strategy.Anneal
	ExhaustiveStrategy = strategy.Exhaustive
	GeneticStrategy    = strategy.Genetic
	TabuStrategy       = strategy.Tabu
	LocalStrategy      = strategy.Local
	RandomStrategy     = strategy.Random
	PortfolioStrategy  = strategy.Portfolio
	// ExactStrategy is the deterministic branch-and-bound member, the
	// only strategy that proves its answer: it returns a certificate
	// (Result.Certificate) and, with a positive PoolSize, a diverse
	// near-optimal solution pool (cmd/hetopt exposes the knobs as
	// -strategy exact -prove -pool-size N -pool-gap G).
	ExactStrategy = strategy.Exact
	// Result is a completed optimization run.
	Result = core.Result
	// Models bundles the trained host/device performance predictors.
	Models = core.Models
	// TrainingPlan is the model-training experiment grid.
	TrainingPlan = core.TrainingPlan
	// Genome describes a DNA input.
	Genome = dna.Genome
	// Motif is a nucleotide pattern (IUPAC codes allowed).
	Motif = dna.Motif
	// Generator produces deterministic synthetic DNA.
	Generator = dna.Generator
	// DFA is a compiled matching automaton.
	DFA = automata.DFA
	// Source supplies input bytes by position (a Generator is one);
	// ExecutionReport is the outcome of Execute.
	Source          = parem.Source
	ExecutionReport = parem.ExecutionReport
	// Calibration collects the performance model's constants.
	Calibration = perf.Calibration
	// MultiProblem and MultiResult tune work distribution across a host
	// plus several accelerators (the paper's future-work scenario).
	MultiProblem = multi.Problem
	MultiResult  = multi.Result
	// Server is the embeddable tuning-as-a-service HTTP handler
	// (cmd/hetserved wraps it): async jobs over a bounded worker pool
	// with a warm-start result store. ServeOptions configures it.
	Server       = serve.Server
	ServeOptions = serve.Options
	// ScenarioFamily is a registered workload family (traits plus named
	// size presets); ScenarioPreset one of its sizes; ScenarioPlatform a
	// registered platform spec (topology + calibration + configuration
	// space); ScenarioRegistry a catalog of both. See internal/scenario
	// and DESIGN.md, "The scenario layer".
	ScenarioFamily   = scenario.Family
	ScenarioPreset   = scenario.SizePreset
	ScenarioPlatform = scenario.PlatformSpec
	ScenarioRegistry = scenario.Registry
)

// Affinity values (Table I).
const (
	AffinityNone     = machine.AffinityNone
	AffinityScatter  = machine.AffinityScatter
	AffinityCompact  = machine.AffinityCompact
	AffinityBalanced = machine.AffinityBalanced
)

// The four optimization methods (Table II).
const (
	EM   = core.EM
	EML  = core.EML
	SAM  = core.SAM
	SAML = core.SAML
)

// The paper's evaluation genomes.
var (
	Human = dna.Human
	Mouse = dna.Mouse
	Cat   = dna.Cat
	Dog   = dna.Dog
)

// NewPlatform returns the simulated paper platform (2x Xeon E5-2695v2 +
// Xeon Phi 7120P).
func NewPlatform() *Platform { return offload.NewPlatform() }

// NewCustomPlatform builds a platform from host and device processor
// descriptions plus calibration constants, enabling tuning for machines
// other than the paper's. The platform keeps copies of all three.
func NewCustomPlatform(host, device *Processor, cal Calibration) *Platform {
	return offload.NewPlatformWithModel(perf.NewModel(host, device, cal))
}

// DefaultCalibration returns the calibration constants of the paper
// platform, a starting point for custom machines.
func DefaultCalibration() Calibration { return perf.DefaultCalibration() }

// XeonE5Host returns the paper's host processor description.
func XeonE5Host() *Processor { return machine.XeonE5Host() }

// NewSchema builds a custom configuration space.
func NewSchema(spec SchemaSpec) (*Schema, error) { return space.NewSchema(spec) }

// GenomeWorkload converts a genome to a tunable workload.
func GenomeWorkload(g Genome) Workload { return offload.GenomeWorkload(g) }

// DefaultMotifs returns the built-in biological motif set.
func DefaultMotifs() []Motif { return dna.DefaultMotifs() }

// CompileMotifs builds an Aho-Corasick matching automaton for a motif
// set.
func CompileMotifs(motifs []Motif) (*DFA, error) { return automata.CompileMotifs(motifs) }

// Execute really runs the matching automaton d over total bytes from
// src, split between the host and the simulated device as cfg says. The
// match counts are real and equal a sequential scan; the times come from
// p's performance model for the actual share sizes.
func Execute(p *Platform, w Workload, cfg Config, d *DFA, src Source, total int64) (ExecutionReport, error) {
	return parem.Execute(p, w, cfg, d, src, total)
}

// NewGenerator creates a deterministic synthetic-DNA generator for a
// genome's composition.
func NewGenerator(g Genome, seed uint64) *Generator { return dna.NewGenerator(g, seed) }

// DefaultPortfolio races the paper's annealer against all four
// alternative metaheuristics over a shared evaluation cache.
func DefaultPortfolio() PortfolioStrategy { return strategy.DefaultPortfolio() }

// MultiPhiProblem builds the multi-accelerator tuning problem for the
// paper's host with n Xeon Phi cards over the Table I value sets.
func MultiPhiProblem(n int, w Workload) (*MultiProblem, error) {
	return multi.PaperProblem(n, w)
}

// TuneMulti runs simulated annealing over a multi-accelerator problem.
func TuneMulti(p *MultiProblem, iterations int, seed int64) (MultiResult, error) {
	return multi.Tune(p, iterations, seed)
}

// Scenarios returns the process-wide scenario registry: the built-in
// catalog (the paper's DNA-on-paper default plus the spmv, stencil and
// crypto families and the gpu-like and edge platforms), extensible via
// its Register methods.
func Scenarios() *ScenarioRegistry { return scenario.Default() }

// ScenarioPlatformByName resolves a registered platform name ("paper",
// "gpu-like", "edge") into its spec; spec.Platform() and spec.Schema()
// produce the tuner inputs.
func ScenarioPlatformByName(name string) (ScenarioPlatform, error) {
	return scenario.PlatformByName(name)
}

// NewScenarioTuner assembles a Tuner for a registered workload family
// on a registered platform: the platform's substrate, schema and the
// family-specific training plan.
func NewScenarioTuner(platformName, workloadName string) (*Tuner, Workload, error) {
	sc, err := scenario.Lookup(platformName, workloadName)
	if err != nil {
		return nil, Workload{}, err
	}
	return &Tuner{
		Platform: sc.Platform.Platform(),
		Schema:   sc.Schema,
		Plan:     sc.TrainingPlan(),
	}, sc.Workload, nil
}

// NewServer builds the tuning service handler: mount it on any
// http.Server (or use cmd/hetserved), POST tune jobs to /v1/jobs, and
// poll /v1/jobs/{id}. Identical requests are answered bit-identically,
// repeats from the warm-start store.
func NewServer(opt ServeOptions) *Server { return serve.New(opt) }

// Tuner is the high-level entry point: it owns a platform, a
// configuration space and (after Train) the prediction models, and runs
// any of the four optimization methods against a workload. It trains
// and measures as the tuning service does, so on a registered scenario
// a run answers what cmd/hetopt and cmd/hetserved answer for the same
// request.
type Tuner struct {
	// Platform is the measurement substrate (replaceable for custom
	// machines).
	Platform *Platform
	// Schema is the configuration space.
	Schema *Schema
	// Plan is the training grid used by Train.
	Plan TrainingPlan
	// Models holds the trained predictors (nil until Train, unless
	// assigned directly).
	Models *Models
}

// NewTuner returns a Tuner with the paper's defaults.
func NewTuner() *Tuner {
	return &Tuner{
		Platform: NewPlatform(),
		Schema:   space.PaperSchema(),
		Plan:     core.PaperTrainingPlan(),
	}
}

// Train generates training data and fits the prediction models. It is
// required before running the ML-based methods (EML, SAML).
func (t *Tuner) Train() error {
	models, err := core.Train(t.Platform, t.Plan, core.TrainOptions{})
	if err != nil {
		return err
	}
	t.Models = models
	return nil
}

// instance assembles the optimizer inputs for a workload. It measures
// through a fresh shared memo, so a run's Experiments counts each
// distinct configuration once, as the service charges it.
func (t *Tuner) instance(w Workload, needML bool) (*core.Instance, error) {
	if t.Schema == nil {
		return nil, fmt.Errorf("hetopt: tuner needs a schema")
	}
	shared, err := core.NewSharedMeasurements(t.Platform, w, t.Schema)
	if err != nil {
		return nil, err
	}
	inst := shared.Instance()
	if t.Models != nil {
		pred, err := core.NewPredictor(t.Models, w, t.Platform.Model())
		if err != nil {
			return nil, err
		}
		inst.Predictor = pred
	} else if needML {
		return nil, fmt.Errorf("hetopt: method requires trained models; call Tuner.Train first")
	}
	return &inst, nil
}

// Tune runs the given optimization method for a workload and returns the
// suggested configuration with its fair-comparison measurement.
func (t *Tuner) Tune(w Workload, m Method, opt Options) (Result, error) {
	inst, err := t.instance(w, m.UsesML())
	if err != nil {
		return Result{}, err
	}
	return core.Run(m, inst, opt)
}

// TuneGenome is Tune for one of the evaluation genomes.
func (t *Tuner) TuneGenome(g Genome, m Method, opt Options) (Result, error) {
	return t.Tune(GenomeWorkload(g), m, opt)
}

// Baselines measures the host-only and device-only reference
// configurations for a workload (Tables VIII and IX).
func (t *Tuner) Baselines(w Workload) (hostOnly, deviceOnly Result, err error) {
	inst, err := t.instance(w, false)
	if err != nil {
		return Result{}, Result{}, err
	}
	hostOnly, err = core.HostOnlyBaseline(inst)
	if err != nil {
		return Result{}, Result{}, err
	}
	deviceOnly, err = core.DeviceOnlyBaseline(inst)
	if err != nil {
		return Result{}, Result{}, err
	}
	return hostOnly, deviceOnly, nil
}
