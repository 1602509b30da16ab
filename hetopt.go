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
// The constrained mode minimizes energy while staying within a makespan
// slack of the time optimum:
//
//	timeRes, ecoRes, err := tuner.TuneWithTimeSlack(
//		hetopt.GenomeWorkload(hetopt.Human), hetopt.SAML, hetopt.Options{}, 0.10)
//
// The package re-exports the building blocks for advanced use: the
// configuration space (Schema), the platform simulator (Platform), the
// finite-automata matching engine (CompileMotifs, CountMatches, and
// Execute for a real run of a configuration), and the
// four optimization methods (EM, EML, SAM, SAML). The internal packages
// documented in DESIGN.md provide the full substrate.
package hetopt

import (
	"fmt"
	"io"

	"hetopt/internal/adaptive"
	"hetopt/internal/automata"
	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/dynsched"
	"hetopt/internal/graph"
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
	// Times reports per-side execution times; Times.E() is the paper's
	// objective.
	Times = offload.Times
	// Energy reports per-side energy in joules; Energy.Total() is the
	// energy objective.
	Energy = offload.Energy
	// Measurement couples times and energy from one evaluation.
	Measurement = offload.Measurement
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
	// only strategy that proves its answer: it returns a Certificate
	// and, with a positive PoolSize, a diverse near-optimal solution
	// pool (cmd/hetopt exposes the knobs as -strategy exact -prove
	// -pool-size N -pool-gap G).
	ExactStrategy = strategy.Exact
	// Certificate is a branch-and-bound optimality certificate; read it
	// through Result.Certificate or PlacementResult.Certificate.
	Certificate = strategy.Certificate
	// PoolEntry is one raw (index-vector) member of a placement search's
	// solution pool; PoolConfig is its decoded divisible-space
	// counterpart on Result.Pool.
	PoolEntry  = strategy.PoolEntry
	PoolConfig = core.PoolConfig
	// Result is a completed optimization run.
	Result = core.Result
	// Models bundles the trained host/device performance predictors.
	Models = core.Models
	// TrainingPlan is the model-training experiment grid.
	TrainingPlan = core.TrainingPlan
	// TrainOptions configures model training.
	TrainOptions = core.TrainOptions
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
	// PerfModel is the analytic performance model behind a Platform.
	PerfModel = perf.Model
	// Calibration collects the performance model's constants.
	Calibration = perf.Calibration
	// MultiPlatform is a host plus several accelerators (the paper's
	// future-work scenario); MultiProblem/MultiConfig/MultiResult tune
	// work distribution across all of them.
	MultiPlatform = multi.Platform
	MultiProblem  = multi.Problem
	MultiConfig   = multi.Config
	MultiResult   = multi.Result
	// MultiTuneOptions configures a parallel multi-accelerator annealing
	// run (chain count and worker pool).
	MultiTuneOptions = multi.TuneOptions
	// DynamicScheduler simulates CoreTsar-style dynamic self-scheduling,
	// the related-work baseline.
	DynamicScheduler = dynsched.Scheduler
	DynamicConfig    = dynsched.Config
	// Match is a streamed match event (end position + multiplicity).
	Match = automata.Match
	// RefineOptions and RefineResult configure and report adaptive
	// measured refinement of a suggested configuration.
	RefineOptions = adaptive.Options
	RefineResult  = adaptive.Result
	// Server is the embeddable tuning-as-a-service HTTP handler
	// (cmd/hetserved wraps it): async jobs over a bounded worker pool
	// with a warm-start result store. ServeOptions configures it.
	Server       = serve.Server
	ServeOptions = serve.Options
	// TuneRequest and TuneResult are the service's wire types;
	// TuneRequest.Normalize canonicalizes a request the way the
	// warm-start store keys it.
	TuneRequest = serve.TuneRequest
	TuneResult  = serve.TuneResult
	// TuneJobStatus is the wire form of one async job;
	// TuneBatchRequest the batch/alpha-sweep submission form, and
	// ServerMetrics the counters behind GET /v1/metrics.
	TuneJobStatus    = serve.JobStatus
	TuneBatchRequest = serve.BatchRequest
	ServerMetrics    = serve.Metrics
	// ScenarioFamily is a registered workload family (traits plus named
	// size presets); ScenarioPreset one of its sizes; ScenarioPlatform a
	// registered platform spec (topology + calibration + configuration
	// space); ScenarioRegistry a catalog of both. See internal/scenario
	// and DESIGN.md, "The scenario layer".
	ScenarioFamily   = scenario.Family
	ScenarioPreset   = scenario.SizePreset
	ScenarioPlatform = scenario.PlatformSpec
	ScenarioRegistry = scenario.Registry
	// Scenario is a fully resolved (platform, workload) pair; its IsDAG
	// method distinguishes task-graph scenarios from divisible ones.
	Scenario = scenario.Scenario
	// GraphWorkload is a task-graph (DAG) workload: named nodes with
	// per-node compute cost and edges with transfer volumes, placed
	// node-by-node across host and device instead of split by a
	// fraction. GraphNode/GraphEdge are its parts and GraphLink the
	// host-device interconnect pricing cross-side transfers.
	GraphWorkload = graph.Workload
	GraphNode     = graph.Node
	GraphEdge     = graph.Edge
	GraphLink     = graph.Link
	// GraphSim is the deterministic list-scheduling simulator pricing a
	// graph on one platform; PlacementResult a completed placement
	// search with its baselines.
	GraphSim        = graph.Sim
	PlacementResult = graph.Result
	// SearchOptions configures a raw strategy-layer search (placement
	// tuning uses it directly; divisible tuning wraps it in Options).
	SearchOptions = strategy.Options
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

// NewCustomPlatform wraps a custom performance model (host/device
// processor descriptions plus calibration), enabling tuning for machines
// other than the paper's.
func NewCustomPlatform(m *PerfModel) *Platform { return offload.NewPlatformWithModel(m) }

// DefaultCalibration returns the calibration constants of the paper
// platform, a starting point for custom machines.
func DefaultCalibration() Calibration { return perf.DefaultCalibration() }

// XeonE5Host and XeonPhi7120P return the paper's processor descriptions.
func XeonE5Host() *Processor   { return machine.XeonE5Host() }
func XeonPhi7120P() *Processor { return machine.XeonPhi7120P() }

// PaperSchema returns the paper's 19,926-configuration space.
func PaperSchema() *Schema { return space.PaperSchema() }

// NewSchema builds a custom configuration space.
func NewSchema(spec SchemaSpec) (*Schema, error) { return space.NewSchema(spec) }

// Genomes returns the four evaluation genomes.
func Genomes() []Genome { return dna.Genomes() }

// GenomeByName looks up an evaluation genome ("human", "mouse", "cat",
// "dog").
func GenomeByName(name string) (Genome, error) { return dna.GenomeByName(name) }

// GenomeWorkload converts a genome to a tunable workload.
func GenomeWorkload(g Genome) Workload { return offload.GenomeWorkload(g) }

// DefaultMotifs returns the built-in biological motif set.
func DefaultMotifs() []Motif { return dna.DefaultMotifs() }

// CompileMotifs builds an Aho-Corasick matching automaton for a motif
// set.
func CompileMotifs(motifs []Motif) (*DFA, error) { return automata.CompileMotifs(motifs) }

// CompilePattern compiles a single regex-like motif pattern into a search
// automaton.
func CompilePattern(pattern string) (*DFA, error) { return automata.CompilePattern(pattern) }

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

// WriteFASTA writes one FASTA record to w.
func WriteFASTA(w io.Writer, header string, seq []byte) error {
	return dna.WriteFASTA(w, header, seq)
}

// ReadFASTA parses all FASTA records from r.
func ReadFASTA(r io.Reader) ([]dna.FASTARecord, error) { return dna.ReadFASTA(r) }

// PaperTrainingPlan returns the 7,200-experiment training grid.
func PaperTrainingPlan() TrainingPlan { return core.PaperTrainingPlan() }

// TrainModels generates training data on the platform and fits the
// per-side performance predictors.
func TrainModels(p *Platform, plan TrainingPlan, opt TrainOptions) (*Models, error) {
	return core.Train(p, plan, opt)
}

// SaveModelsFile persists trained models (off-line learning: train once,
// reuse the predictor without re-measuring).
func SaveModelsFile(m *Models, path string) error { return core.SaveModelsFile(m, path) }

// LoadModelsFile restores models written by SaveModelsFile.
func LoadModelsFile(path string) (*Models, error) { return core.LoadModelsFile(path) }

// ParseMethod converts a method name into a Method.
func ParseMethod(s string) (Method, error) { return core.ParseMethod(s) }

// ParseStrategy converts a strategy name ("anneal", "exhaustive",
// "exact", "genetic", "tabu", "local", "random", "portfolio") into a
// Strategy; the empty name (or "auto") returns nil, selecting each
// method's preset explorer.
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// Pool-knob bounds of the exact strategy, shared by flag and wire
// validation: a zero PoolGap with a positive PoolSize selects
// DefaultPoolGap, and PoolSize clamps at MaxPoolSize.
const (
	DefaultPoolGap = strategy.DefaultPoolGap
	MaxPoolSize    = strategy.MaxPoolSize
)

// StrategyNames lists the parseable strategy names.
func StrategyNames() []string { return strategy.Names() }

// DefaultPortfolio races the paper's annealer against all four
// alternative metaheuristics over a shared evaluation cache.
func DefaultPortfolio() PortfolioStrategy { return strategy.DefaultPortfolio() }

// DefaultAnneal returns the paper's simulated-annealing schedule as an
// injectable strategy.
func DefaultAnneal() AnnealStrategy { return strategy.DefaultAnneal() }

// PlacementString encodes a graph placement canonically: one character
// per node, 'h' or 'd'. ParsePlacement inverts it.
func PlacementString(placement []int) string { return graph.PlacementString(placement) }

// ParsePlacement decodes a PlacementString.
func ParsePlacement(s string) ([]int, error) { return graph.ParsePlacement(s) }

// ParseObjective converts an objective name ("time", "energy",
// "weighted") into an Objective; alpha is the time weight consulted by
// "weighted". The constrained minimum-energy mode is built from a
// time-optimal run instead — see Tuner.TuneWithTimeSlack.
func ParseObjective(name string, alpha float64) (Objective, error) {
	return core.ParseObjective(name, alpha)
}

// MultiPhiProblem builds the multi-accelerator tuning problem for the
// paper's host with n Xeon Phi cards over the Table I value sets.
func MultiPhiProblem(n int, w Workload) (*MultiProblem, error) {
	return multi.PaperProblem(n, w)
}

// TuneMulti runs simulated annealing over a multi-accelerator problem.
func TuneMulti(p *MultiProblem, iterations int, seed int64) (MultiResult, error) {
	return multi.Tune(p, iterations, seed)
}

// TuneMultiParallel runs one or more concurrent annealing chains over a
// multi-accelerator problem; chains share an evaluation cache and the
// result is identical at every parallelism level for a fixed seed.
func TuneMultiParallel(p *MultiProblem, opt MultiTuneOptions) (MultiResult, error) {
	return multi.TuneParallel(p, opt)
}

// NewDynamicScheduler returns the dynamic self-scheduling baseline on the
// paper platform's performance model.
func NewDynamicScheduler() *DynamicScheduler { return dynsched.NewScheduler() }

// Scenarios returns the process-wide scenario registry: the built-in
// catalog (the paper's DNA-on-paper default plus the spmv, stencil and
// crypto families and the gpu-like and edge platforms), extensible via
// its Register methods.
func Scenarios() *ScenarioRegistry { return scenario.Default() }

// ScenarioWorkload resolves a registered workload name ("spmv",
// "dna:human", a genome name, ...) into a tunable workload.
func ScenarioWorkload(name string) (Workload, error) { return scenario.ResolveWorkload(name) }

// ScenarioPlatformByName resolves a registered platform name ("paper",
// "gpu-like", "edge") into its spec; spec.Platform() and spec.Schema()
// produce the tuner inputs.
func ScenarioPlatformByName(name string) (ScenarioPlatform, error) {
	return scenario.PlatformByName(name)
}

// ScenarioLookup resolves a registered (platform, workload) pair into a
// runnable scenario — the shared resolution path of the CLIs, the
// experiment suite and the serving layer. For DAG scenarios,
// Scenario.DAGSim builds the placement simulator.
func ScenarioLookup(platformName, workloadName string) (Scenario, error) {
	return scenario.Lookup(platformName, workloadName)
}

// GraphPresets returns the built-in task-graph workloads (the "dag"
// scenario family).
func GraphPresets() []GraphWorkload { return graph.Presets() }

// TunePlacement searches the makespan-minimizing placement of a task
// graph over its simulator; a nil strategy enumerates the 2^n
// placements exhaustively. Results are deterministic: same simulator,
// strategy and options produce bit-identical placements at any
// parallelism.
func TunePlacement(sim *GraphSim, strat Strategy, opt SearchOptions) (PlacementResult, error) {
	return graph.Tune(sim, strat, opt)
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

// CompileMotifsBothStrands compiles a motif set matching both DNA
// strands (each motif plus its reverse complement; palindromes once).
func CompileMotifsBothStrands(motifs []Motif) (*DFA, error) {
	return automata.CompileMotifsBothStrands(motifs)
}

// ReverseComplement returns the reverse complement of a concrete
// sequence.
func ReverseComplement(seq []byte) []byte { return dna.ReverseComplement(seq) }

// ParseAffinity converts an affinity name into an Affinity.
func ParseAffinity(s string) (Affinity, error) { return machine.ParseAffinity(s) }

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
		Schema:   PaperSchema(),
		Plan:     PaperTrainingPlan(),
	}
}

// Train generates training data and fits the prediction models. It is
// required before running the ML-based methods (EML, SAML).
func (t *Tuner) Train() error {
	models, err := core.Train(t.Platform, t.Plan, TrainOptions{})
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

// TuneWithTimeSlack is the constrained bi-objective pipeline: it first
// finds the time-optimal configuration with method m, then minimizes
// energy subject to the makespan staying within (1+slack) of that
// optimum. It returns the time-optimal reference and the energy-minimal
// result within the slack.
func (t *Tuner) TuneWithTimeSlack(w Workload, m Method, opt Options, slack float64) (timeRes, energyRes Result, err error) {
	inst, err := t.instance(w, m.UsesML())
	if err != nil {
		return Result{}, Result{}, err
	}
	return core.RunWithTimeSlack(m, inst, opt, slack)
}

// TuneAndRefine runs the adaptive pipeline (paper future work): SAML
// proposes a configuration from predictions, then a small budget of real
// measurements hill-climbs from it.
func (t *Tuner) TuneAndRefine(w Workload, samlOpt Options, refineOpt RefineOptions) (Result, RefineResult, error) {
	inst, err := t.instance(w, true)
	if err != nil {
		return Result{}, RefineResult{}, err
	}
	return adaptive.TuneAndRefine(inst, samlOpt, refineOpt)
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
