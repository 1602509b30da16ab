// Command hetopt tunes the work distribution of the DNA-analysis workload
// on the simulated heterogeneous platform using any of the paper's four
// optimization methods, and reports the suggested system configuration
// together with the speedups over host-only and device-only execution.
//
// Usage:
//
//	hetopt -method saml -genome human -iterations 1000
//	hetopt -method em -genome cat
//	hetopt -compare -genome mouse
//	hetopt -workload spmv -platform gpu-like     # any registered scenario
//	hetopt -workload stencil:large -platform edge
//	hetopt -strategy genetic                 # explore with the GA instead of SA
//	hetopt -strategy portfolio -restarts 4   # race all strategies, shared cache
//	hetopt -strategy exact -prove            # branch-and-bound, certified optimum
//	hetopt -strategy exact -prove -pool-size 5   # plus a diverse solution pool
//	hetopt -objective energy                 # minimize joules, not seconds
//	hetopt -objective weighted -alpha 0.5    # trade time against energy
//	hetopt -objective bounded -slack 0.10    # min energy within 110% of T_best
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"hetopt"
	"hetopt/internal/strategy"
)

// params collects the validated CLI inputs of one run.
type params struct {
	method     string
	strategy   string
	genome     string
	workload   string
	platform   string
	iterations int
	seed       int64
	sizeMB     float64
	compare    bool
	modelCache string
	parallel   int
	restarts   int
	objective  string
	alpha      float64
	slack      float64
	prove      bool
	poolSize   int
	poolGap    float64
}

// validate rejects flag combinations before any expensive work, so the
// user gets a usage error instead of a silently clamped run.
func (p *params) validate() error {
	if p.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = all CPUs), got %d", p.parallel)
	}
	if p.restarts < 0 {
		return fmt.Errorf("-restarts must be >= 0, got %d", p.restarts)
	}
	if p.iterations < 0 {
		return fmt.Errorf("-iterations must be >= 0, got %d", p.iterations)
	}
	if _, err := hetopt.ParseStrategy(p.strategy); err != nil {
		return fmt.Errorf("-strategy must be auto or one of %s, got %q",
			strings.Join(hetopt.StrategyNames(), ", "), p.strategy)
	}
	if p.poolSize < 0 || p.poolSize > hetopt.MaxPoolSize {
		return fmt.Errorf("-pool-size must be in [0,%d], got %d", hetopt.MaxPoolSize, p.poolSize)
	}
	if p.poolGap < 0 {
		return fmt.Errorf("-pool-gap must be >= 0, got %g", p.poolGap)
	}
	if (p.prove || p.poolSize != 0 || p.poolGap != 0) && p.strategy != "exact" {
		return fmt.Errorf("-prove, -pool-size and -pool-gap require -strategy exact, got -strategy %q", p.strategy)
	}
	if p.workload != "" && p.genome != "" {
		return fmt.Errorf("-workload %q and -genome %q both set; -genome is a workload alias, set exactly one (the serving layer enforces the same rule)", p.workload, p.genome)
	}
	if _, err := hetopt.ScenarioWorkload(p.workloadName()); err != nil {
		return fmt.Errorf("-workload: %v", err)
	}
	if _, err := hetopt.ScenarioPlatformByName(p.platformName()); err != nil {
		return fmt.Errorf("-platform: %v", err)
	}
	if p.alpha < 0 || p.alpha > 1 {
		return fmt.Errorf("-alpha must be in [0,1], got %g", p.alpha)
	}
	if p.slack < 0 {
		return fmt.Errorf("-slack must be >= 0, got %g", p.slack)
	}
	switch p.objective {
	case "time", "energy", "weighted", "bounded", "":
	default:
		return fmt.Errorf("-objective must be time, energy, weighted or bounded, got %q", p.objective)
	}
	return nil
}

// platformName resolves the effective platform name; the empty value
// (library-style callers bypassing flag defaults) selects "paper".
func (p *params) platformName() string {
	if p.platform == "" {
		return "paper"
	}
	return p.platform
}

// workloadName resolves the effective workload name: -workload wins,
// -genome is the backward-compatible alias, "human" is the default.
func (p *params) workloadName() string {
	if p.workload != "" {
		return p.workload
	}
	if p.genome != "" {
		return p.genome
	}
	return "human"
}

func main() {
	var p params
	flag.StringVar(&p.method, "method", "saml", "optimization method: em, eml, sam or saml")
	flag.StringVar(&p.strategy, "strategy", "auto", "search strategy: auto (method preset), anneal, exhaustive, exact, genetic, tabu, local, random or portfolio")
	flag.StringVar(&p.genome, "genome", "", "evaluation genome (alias for -workload): human, mouse, cat or dog")
	flag.StringVar(&p.workload, "workload", "", `registered workload: a family ("spmv"), a preset ("stencil:large"), or a genome name (default "human")`)
	flag.StringVar(&p.platform, "platform", "paper", "registered platform spec: paper, gpu-like or edge")
	flag.IntVar(&p.iterations, "iterations", 1000, "search evaluation budget per worker, for any strategy (exhaustive enumeration ignores it)")
	flag.Int64Var(&p.seed, "seed", 1, "base random seed for the search strategy")
	flag.Float64Var(&p.sizeMB, "size", 0, "override the workload size in MB (0 = genome size)")
	flag.BoolVar(&p.compare, "compare", false, "run all four methods and compare")
	flag.StringVar(&p.modelCache, "model-cache", "", "path for persisted prediction models (loaded if present, written after training)")
	flag.IntVar(&p.parallel, "parallel", 1, "search worker count (0 = all CPUs); results are identical at any level")
	flag.IntVar(&p.restarts, "restarts", 1, "independent search workers: annealing chains or heuristic restarts (best one wins)")
	flag.StringVar(&p.objective, "objective", "time", "search objective: time, energy, weighted or bounded")
	flag.Float64Var(&p.alpha, "alpha", 0.5, "time weight in [0,1] for -objective weighted")
	flag.Float64Var(&p.slack, "slack", 0.10, "makespan slack over the time optimum for -objective bounded")
	flag.BoolVar(&p.prove, "prove", false, "with -strategy exact: ignore the budget and exhaust the branch-and-bound tree, certifying the optimum")
	flag.IntVar(&p.poolSize, "pool-size", 0, fmt.Sprintf("with -strategy exact: keep up to this many diverse near-optimal configurations (max %d)", hetopt.MaxPoolSize))
	flag.Float64Var(&p.poolGap, "pool-gap", 0, fmt.Sprintf("with -strategy exact: relative objective gap admitting pool members (0 selects the default %g)", hetopt.DefaultPoolGap))
	flag.Parse()

	if err := p.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hetopt:", err)
		flag.Usage()
		os.Exit(2)
	}
	if p.parallel == 0 {
		p.parallel = runtime.GOMAXPROCS(0)
	}
	if err := run(p); err != nil {
		fmt.Fprintln(os.Stderr, "hetopt:", err)
		os.Exit(1)
	}
}

func run(p params) error {
	if err := p.validate(); err != nil {
		return err
	}
	sc, err := hetopt.ScenarioLookup(p.platformName(), p.workloadName())
	if err != nil {
		return err
	}
	if sc.IsDAG() {
		return runDAG(p, sc)
	}
	tuner, workload, err := hetopt.NewScenarioTuner(p.platformName(), p.workloadName())
	if err != nil {
		return err
	}
	if p.sizeMB > 0 {
		workload = workload.Scaled(p.sizeMB)
	}
	if p.modelCache != "" {
		if models, err := hetopt.LoadModelsFile(p.modelCache); err == nil {
			tuner.Models = models
			fmt.Printf("loaded prediction models from %s\n", p.modelCache)
		}
	}
	if tuner.Models == nil {
		fmt.Printf("training prediction models (%d+%d experiments)...\n",
			tuner.Plan.HostExperiments(), tuner.Plan.DeviceExperiments())
		if err := tuner.Train(); err != nil {
			return err
		}
		if p.modelCache != "" {
			if err := hetopt.SaveModelsFile(tuner.Models, p.modelCache); err != nil {
				return err
			}
			fmt.Printf("saved prediction models to %s\n", p.modelCache)
		}
	}
	fmt.Printf("  host model:   %.3f%% mean percent error\n", tuner.Models.HostReport.Eval.MeanPercentError)
	fmt.Printf("  device model: %.3f%% mean percent error\n\n", tuner.Models.DeviceReport.Eval.MeanPercentError)

	hostOnly, deviceOnly, err := tuner.Baselines(workload)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s (%.0f MB) on %s, objective: %s\n", workload.Name, workload.SizeMB, p.platformName(), p.objective)
	fmt.Printf("host-only   (%dT):  %.4f s, %.1f J\n", hostOnly.Config.HostThreads, hostOnly.MeasuredE(), hostOnly.MeasuredJ())
	fmt.Printf("device-only (%dT): %.4f s, %.1f J\n\n", deviceOnly.Config.DeviceThreads, deviceOnly.MeasuredE(), deviceOnly.MeasuredJ())

	methods := []hetopt.Method{}
	if p.compare {
		methods = append(methods, hetopt.EM, hetopt.EML, hetopt.SAM, hetopt.SAML)
	} else {
		m, err := hetopt.ParseMethod(p.method)
		if err != nil {
			return err
		}
		methods = append(methods, m)
	}

	strat, err := hetopt.ParseStrategy(p.strategy)
	if err != nil {
		return err
	}
	strat = strategy.WithExactKnobs(strat, p.prove, p.poolSize, p.poolGap)
	if strat != nil {
		fmt.Printf("search strategy: %s\n\n", strat.Name())
	}
	opt := hetopt.Options{
		Iterations:  p.iterations,
		Seed:        p.seed,
		Parallelism: p.parallel,
		Restarts:    p.restarts,
		Strategy:    strat,
	}
	for _, m := range methods {
		var res hetopt.Result
		if p.objective == "bounded" {
			timeRes, ecoRes, err := tuner.TuneWithTimeSlack(workload, m, opt, p.slack)
			if err != nil {
				return err
			}
			fmt.Printf("%-4s time-opt:  %v (T=%.4f s, %.1f J)\n", m, timeRes.Config, timeRes.MeasuredE(), timeRes.MeasuredJ())
			res = ecoRes
		} else {
			obj, err := hetopt.ParseObjective(p.objective, p.alpha)
			if err != nil {
				return err
			}
			opt.Objective = obj
			res, err = tuner.Tune(workload, m, opt)
			if err != nil {
				return err
			}
		}
		fmt.Printf("%-4s suggested: %v\n", m, res.Config)
		fmt.Printf("     measured: T_host=%.4f s, T_device=%.4f s, E=%.4f s\n",
			res.Measured.Host, res.Measured.Device, res.MeasuredE())
		fmt.Printf("     energy:   J_host=%.1f, J_device=%.1f, total=%.1f J (%s objective value %.4f)\n",
			res.MeasuredEnergy.Host, res.MeasuredEnergy.Device, res.MeasuredJ(), res.Objective, res.MeasuredObjective)
		fmt.Printf("     speedup:  %.2fx vs host-only, %.2fx vs device-only; energy: %.2fx vs host-only, %.2fx vs device-only\n",
			hostOnly.MeasuredE()/res.MeasuredE(), deviceOnly.MeasuredE()/res.MeasuredE(),
			hostOnly.MeasuredJ()/res.MeasuredJ(), deviceOnly.MeasuredJ()/res.MeasuredJ())
		fmt.Printf("     effort:   %d search evaluations, %d experiments\n",
			res.SearchEvaluations, res.Experiments)
		if cert, ok := res.Certificate(); ok {
			fmt.Printf("     proof:    %s\n", formatCertificate(cert))
		}
		for i, e := range res.Pool {
			fmt.Printf("     pool[%d]:  %v (objective %.4f)\n", i, e.Config, e.Objective)
		}
		fmt.Println()
	}
	return nil
}

// formatCertificate renders a branch-and-bound certificate on one line.
func formatCertificate(cert hetopt.Certificate) string {
	status := "proved optimal"
	if !cert.Optimal {
		status = fmt.Sprintf("gap %.2f%% to lower bound (budget exhausted; rerun with -prove)", 100*cert.Gap)
	}
	return fmt.Sprintf("%s — lower bound %.4f, %d nodes explored, %d pruned",
		status, cert.LowerBound, cert.Explored, cert.Pruned)
}

// runDAG tunes a task-graph scenario: instead of splitting one kernel
// by a fraction, the search assigns each graph node to the host or the
// device and the list-scheduling simulator prices the resulting
// makespan. The methods map onto the placement search the way the
// serving layer maps them: EM/EML enumerate, SAM/SAML anneal, and an
// explicit -strategy overrides either.
func runDAG(p params, sc hetopt.Scenario) error {
	if p.objective != "" && p.objective != "time" {
		return fmt.Errorf("workload %s is a task graph; the placement simulator prices time only (-objective %s unsupported)", p.workloadName(), p.objective)
	}
	if p.sizeMB > 0 {
		return fmt.Errorf("workload %s is a task graph; -size cannot rescale it", p.workloadName())
	}
	sim, err := sc.DAGSim()
	if err != nil {
		return err
	}
	host, device := sim.SideNames()
	g := sim.Workload()
	fmt.Printf("workload: %s — %s\n", p.workloadName(), g.Description)
	fmt.Printf("graph: %d nodes, %d edges, %.0f MB total work on %s (%s + %s)\n\n",
		len(g.Nodes), len(g.Edges), g.TotalWorkMB(), p.platformName(), host, device)
	fmt.Printf("host-only:   %.4f s\ndevice-only: %.4f s\n\n", sim.HostOnlySec(), sim.DeviceOnlySec())

	methods := []hetopt.Method{}
	if p.compare {
		methods = append(methods, hetopt.EM, hetopt.EML, hetopt.SAM, hetopt.SAML)
	} else {
		m, err := hetopt.ParseMethod(p.method)
		if err != nil {
			return err
		}
		methods = append(methods, m)
	}
	explicit, err := hetopt.ParseStrategy(p.strategy)
	if err != nil {
		return err
	}
	explicit = strategy.WithExactKnobs(explicit, p.prove, p.poolSize, p.poolGap)
	opt := hetopt.SearchOptions{
		Budget:      p.iterations,
		Seed:        p.seed,
		Restarts:    p.restarts,
		Parallelism: p.parallel,
	}
	for _, m := range methods {
		strat := explicit
		if strat == nil { // auto: the method's preset explorer
			if m.UsesAnnealing() {
				strat = hetopt.DefaultAnneal()
			} else {
				strat = hetopt.ExhaustiveStrategy{}
			}
		}
		res, err := hetopt.TunePlacement(sim, strat, opt)
		if err != nil {
			return err
		}
		fmt.Printf("%-4s placement: %s\n", m, sim.FormatPlacement(res.Placement))
		fmt.Printf("     encoded:  %s (host share %.0f%% of node work)\n",
			hetopt.PlacementString(res.Placement), sim.HostWorkFraction(res.Placement))
		fmt.Printf("     makespan: %.4f s | round-robin %.4f s\n", res.MakespanSec, res.RoundRobinSec)
		fmt.Printf("     speedup:  %.2fx vs host-only, %.2fx vs device-only\n",
			res.HostOnlySec/res.MakespanSec, res.DeviceOnlySec/res.MakespanSec)
		fmt.Printf("     effort:   %d placements priced\n", res.Evaluations)
		if cert, ok := res.Certificate(); ok {
			fmt.Printf("     proof:    %s\n", formatCertificate(cert))
		}
		for i, e := range res.PoolEntries() {
			fmt.Printf("     pool[%d]:  %s (%.4f s)\n", i, hetopt.PlacementString(e.State), e.Energy)
		}
		fmt.Println()
	}
	return nil
}
