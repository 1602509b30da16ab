// Command hetopt tunes the work distribution of the DNA-analysis workload
// on the simulated heterogeneous platform using any of the paper's four
// optimization methods, and reports the suggested system configuration
// together with the speedups over host-only and device-only execution.
//
// The flags map onto a serve.TuneRequest that runs on a serve.Runner, the
// same runner the tuning service executes its cold jobs on, so hetopt
// answers exactly what hetserved answers for the same request.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"hetopt/internal/core"
	"hetopt/internal/scenario"
	"hetopt/internal/serve"
	"hetopt/internal/strategy"
)

// params collects the CLI inputs of one run.
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

// request maps the flags onto a normalized TuneRequest. Normalize makes
// every check it can, and its refusals are reported under the flag of
// the field at fault. The CLI adds only the checks Normalize cannot
// make, because Normalize canonicalizes those values instead of
// refusing them.
func (p *params) request() (serve.TuneRequest, error) {
	req, err := serve.TuneRequest{
		Workload: p.workload, Platform: p.platform, Genome: p.genome, SizeMB: p.sizeMB,
		Method: p.method, Strategy: p.strategy, Objective: p.objective, Alpha: p.alpha, Slack: p.slack,
		Iterations: p.iterations, Restarts: p.restarts, Seed: p.seed,
		PoolSize: p.poolSize, PoolGap: p.poolGap, Prove: p.prove,
	}.Normalize()
	var fe *serve.FieldError
	switch {
	case errors.As(err, &fe):
		return req, fmt.Errorf("-%s: %w", strings.ReplaceAll(strings.TrimSuffix(fe.Field, "_mb"), "_", "-"), err)
	case err != nil:
		return req, err
	case p.parallel < 0:
		return req, fmt.Errorf("-parallel must be >= 0 (0 = all CPUs), got %d", p.parallel)
	case p.alpha < 0 || p.alpha > 1:
		return req, fmt.Errorf("-alpha must be in [0,1], got %g", p.alpha)
	case p.slack < 0:
		return req, fmt.Errorf("-slack must be >= 0, got %g", p.slack)
	case (p.prove || p.poolSize != 0 || p.poolGap != 0) && req.Strategy != "exact":
		return req, fmt.Errorf("-prove, -pool-size and -pool-gap require -strategy exact, got -strategy %q", p.strategy)
	case p.poolSize > strategy.MaxPoolSize:
		return req, fmt.Errorf("-pool-size must be at most %d, got %d", strategy.MaxPoolSize, p.poolSize)
	}
	return req, nil
}

// validate rejects flag combinations before any expensive work, so the
// user gets a usage error instead of a silently clamped run.
func (p *params) validate() error {
	_, err := p.request()
	return err
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
	flag.StringVar(&p.modelCache, "model-cache", "", "path for persisted prediction models (loaded if trained for the same platform and family, else trained and written)")
	flag.IntVar(&p.parallel, "parallel", 1, "search worker count (0 = all CPUs); results are identical at any level")
	flag.IntVar(&p.restarts, "restarts", 1, "independent search workers: annealing chains or heuristic restarts (best one wins)")
	flag.StringVar(&p.objective, "objective", "time", "search objective: time, energy, weighted or bounded")
	flag.Float64Var(&p.alpha, "alpha", 0.5, "time weight in [0,1] for -objective weighted")
	flag.Float64Var(&p.slack, "slack", 0.10, "makespan slack over the time optimum for -objective bounded")
	flag.BoolVar(&p.prove, "prove", false, "with -strategy exact: ignore the budget and exhaust the branch-and-bound tree, certifying the optimum")
	flag.IntVar(&p.poolSize, "pool-size", 0, fmt.Sprintf("with -strategy exact: keep up to this many diverse near-optimal configurations (max %d)", strategy.MaxPoolSize))
	flag.Float64Var(&p.poolGap, "pool-gap", 0, fmt.Sprintf("with -strategy exact: relative objective gap admitting pool members (0 selects the default %g)", strategy.DefaultPoolGap))
	flag.Parse()

	if err := p.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hetopt:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(p); err != nil {
		fmt.Fprintln(os.Stderr, "hetopt:", err)
		os.Exit(1)
	}
}

func run(p params) error {
	_, err := tune(p, os.Stdout)
	return err
}

// tune runs the flags' requests — one, or one per method with -compare —
// on a fresh serve.Runner, writes the report to w and returns the
// results.
func tune(p params, w io.Writer) ([]serve.TuneResult, error) {
	req, err := p.request()
	if err != nil {
		return nil, err
	}
	if p.parallel == 0 {
		p.parallel = runtime.GOMAXPROCS(0)
	}
	reqs := []serve.TuneRequest{req}
	if p.compare {
		reqs = nil
		for _, m := range []core.Method{core.EM, core.EML, core.SAM, core.SAML} {
			r := req
			r.Method = m.String()
			reqs = append(reqs, r)
		}
	}
	fam, _, err := scenario.Resolve(req.Workload)
	if err != nil {
		return nil, err
	}
	r := serve.NewRunner(nil, nil)
	fmt.Fprintf(w, "workload: %s (%.0f MB) on %s, strategy: %s, objective: %s\n",
		req.Workload, req.SizeMB, req.Platform, req.Strategy, req.Objective)
	var hostOnly, deviceOnly serve.TuneResult
	if !fam.IsDAG() {
		if err := printModels(w, r, reqs, p.modelCache); err != nil {
			return nil, err
		}
		if hostOnly, deviceOnly, err = r.Baselines(req); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "host-only   (%dT):  %.4f s, %.1f J\n", hostOnly.Config.HostThreads, hostOnly.TimeSec, hostOnly.EnergyJ)
		fmt.Fprintf(w, "device-only (%dT): %.4f s, %.1f J\n", deviceOnly.Config.DeviceThreads, deviceOnly.TimeSec, deviceOnly.EnergyJ)
	}
	fmt.Fprintln(w)

	var results []serve.TuneResult
	for _, rq := range reqs {
		res, err := r.Run(rq, p.parallel)
		if err != nil {
			return nil, err
		}
		printResult(w, res, hostOnly, deviceOnly)
		results = append(results, res)
	}
	return results, nil
}

// printModels reports the accuracy of the prediction models the ML
// requests among reqs share, backing them with the -model-cache file
// when one is named. Requests without an ML method need no models.
func printModels(w io.Writer, r *serve.Runner, reqs []serve.TuneRequest, cache string) error {
	for _, req := range reqs {
		if m, _ := core.ParseMethod(req.Method); !m.UsesML() {
			continue
		}
		models, loaded, err := r.Models(req, cache)
		if err != nil {
			return err
		}
		switch {
		case loaded:
			fmt.Fprintf(w, "loaded prediction models from %s\n", cache)
		case cache != "":
			fmt.Fprintf(w, "trained prediction models, saved to %s\n", cache)
		}
		fmt.Fprintf(w, "host model:   %.3f%% mean percent error\n", models.HostReport.Eval.MeanPercentError)
		fmt.Fprintf(w, "device model: %.3f%% mean percent error\n", models.DeviceReport.Eval.MeanPercentError)
		return nil
	}
	return nil
}

// printResult renders one result; hostOnly and deviceOnly are the
// baselines of a divisible workload (a task graph's come with its
// placement).
func printResult(w io.Writer, res serve.TuneResult, hostOnly, deviceOnly serve.TuneResult) {
	if pl := res.Placement; pl != nil {
		fmt.Fprintf(w, "%-4s placement: %s\n", res.Method, res.Distribution)
		fmt.Fprintf(w, "     encoded:  %s (host share %.0f%% of node work)\n", pl.Encoded, res.Config.HostFraction)
		fmt.Fprintf(w, "     makespan: %.4f s | round-robin %.4f s\n", pl.MakespanSec, pl.RoundRobinSec)
		fmt.Fprintf(w, "     speedup:  %.2fx vs host-only, %.2fx vs device-only\n",
			pl.HostOnlySec/pl.MakespanSec, pl.DeviceOnlySec/pl.MakespanSec)
		fmt.Fprintf(w, "     effort:   %d placements priced\n", res.SearchEvaluations)
	} else {
		if ref := res.TimeReference; ref != nil {
			fmt.Fprintf(w, "%-4s time-opt:  %s (T=%.4f s, %.1f J)\n", res.Method, ref.Distribution, ref.TimeSec, ref.EnergyJ)
		}
		fmt.Fprintf(w, "%-4s suggested: %s\n", res.Method, res.Distribution)
		fmt.Fprintf(w, "     measured: T_host=%.4f s, T_device=%.4f s, E=%.4f s\n", res.HostSec, res.DeviceSec, res.TimeSec)
		fmt.Fprintf(w, "     energy:   J_host=%.1f, J_device=%.1f, total=%.1f J (%s objective value %.4f)\n",
			res.HostJ, res.DeviceJ, res.EnergyJ, res.Objective, res.MeasuredObjective)
		fmt.Fprintf(w, "     speedup:  %.2fx vs host-only, %.2fx vs device-only; energy: %.2fx vs host-only, %.2fx vs device-only\n",
			hostOnly.TimeSec/res.TimeSec, deviceOnly.TimeSec/res.TimeSec, hostOnly.EnergyJ/res.EnergyJ, deviceOnly.EnergyJ/res.EnergyJ)
		fmt.Fprintf(w, "     effort:   %d search evaluations, %d experiments\n", res.SearchEvaluations, res.Experiments)
	}
	if c := res.Certificate; c != nil {
		status := "proved optimal"
		if !c.Optimal {
			status = fmt.Sprintf("gap %.2f%% to lower bound (budget exhausted; rerun with -prove)", 100*c.Gap)
		}
		fmt.Fprintf(w, "     proof:    %s — lower bound %.4f, %d nodes explored, %d pruned\n", status, c.LowerBound, c.Explored, c.Pruned)
	}
	for i, e := range res.Pool {
		fmt.Fprintf(w, "     pool[%d]:  %s (objective %.4f)\n", i, e.Distribution, e.Objective)
	}
	fmt.Fprintln(w)
}
