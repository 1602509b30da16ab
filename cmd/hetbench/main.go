// Command hetbench regenerates the paper's tables and figures on the
// simulated platform and writes the full report (see EXPERIMENTS.md for
// the paper-vs-measured comparison).
//
// Usage:
//
//	hetbench                 # full report to stdout
//	hetbench -out report.txt # write to a file
//	hetbench -ablate         # include the ablation studies
//	hetbench -repeats 10     # average SA over more seeds
//	hetbench -workload spmv -platform gpu-like   # any registered scenario
//	hetbench -workload dag:resnet-ish -platform gpu-like  # task-graph placement report
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"hetopt/internal/core"
	"hetopt/internal/experiments"
	"hetopt/internal/scenario"
	"hetopt/internal/strategy"
)

func main() {
	var (
		out       = flag.String("out", "", "output file (empty = stdout)")
		ablate    = flag.Bool("ablate", false, "include ablation and extension studies")
		repeats   = flag.Int("repeats", 7, "SA seeds averaged per table cell")
		seed      = flag.Int64("seed", 1, "base random seed")
		jsonMode  = flag.Bool("json", false, "emit the machine-readable JSON report instead of text")
		parallel  = flag.Int("parallel", 0, "search worker count (0 = all CPUs); the report is identical at any level")
		stratName = flag.String("strategy", "auto", "search strategy injected into every method run: auto (method presets), anneal, exhaustive, exact, genetic, tabu, local, random or portfolio")
		workload  = flag.String("workload", "dna:human", `registered workload the report runs on: a family ("spmv"), a preset ("stencil:large"), or a genome name`)
		platform  = flag.String("platform", "paper", "registered platform spec: paper, gpu-like or edge")
		prove     = flag.Bool("prove", false, "with -strategy exact: exhaust the branch-and-bound tree in every injected run, certifying each optimum")
		poolSize  = flag.Int("pool-size", 0, fmt.Sprintf("with -strategy exact: diverse solution pool size per run (max %d)", strategy.MaxPoolSize))
		poolGap   = flag.Float64("pool-gap", 0, fmt.Sprintf("with -strategy exact: relative objective gap admitting pool members (0 selects the default %g)", strategy.DefaultPoolGap))
	)
	flag.Parse()

	if err := validate(*repeats, *parallel, *stratName, *workload, *platform, *prove, *poolSize, *poolGap); err != nil {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		flag.Usage()
		os.Exit(2)
	}
	if *parallel == 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}
	knobs := exactKnobs{prove: *prove, poolSize: *poolSize, poolGap: *poolGap}
	if err := run(*out, *ablate, *repeats, *seed, *jsonMode, *parallel, *stratName, *workload, *platform, knobs); err != nil {
		fmt.Fprintln(os.Stderr, "hetbench:", err)
		os.Exit(1)
	}
}

// exactKnobs bundles the exact-only strategy flags.
type exactKnobs struct {
	prove    bool
	poolSize int
	poolGap  float64
}

// validate rejects out-of-range flags before any work, so the user gets
// a usage error instead of a silently clamped report.
func validate(repeats, parallel int, strategyName, workload, platform string, prove bool, poolSize int, poolGap float64) error {
	if repeats < 1 {
		return fmt.Errorf("-repeats must be >= 1, got %d", repeats)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = all CPUs), got %d", parallel)
	}
	if _, err := core.ParseStrategy(strategyName); err != nil {
		return fmt.Errorf("-strategy must be auto or one of %s, got %q",
			strings.Join(strategy.Names(), ", "), strategyName)
	}
	if poolSize < 0 || poolSize > strategy.MaxPoolSize {
		return fmt.Errorf("-pool-size must be in [0,%d], got %d", strategy.MaxPoolSize, poolSize)
	}
	if poolGap < 0 {
		return fmt.Errorf("-pool-gap must be >= 0, got %g", poolGap)
	}
	if (prove || poolSize != 0 || poolGap != 0) && strategyName != "exact" {
		return fmt.Errorf("-prove, -pool-size and -pool-gap require -strategy exact, got -strategy %q", strategyName)
	}
	if _, err := scenario.ResolveWorkload(workloadOrDefault(workload)); err != nil {
		return fmt.Errorf("-workload: %v", err)
	}
	if _, err := scenario.PlatformByName(platformOrDefault(platform)); err != nil {
		return fmt.Errorf("-platform: %v", err)
	}
	return nil
}

// workloadOrDefault and platformOrDefault mirror the flag defaults for
// library-style callers that bypass them.
func workloadOrDefault(w string) string {
	if w == "" {
		return "dna:human"
	}
	return w
}

func platformOrDefault(p string) string {
	if p == "" {
		return "paper"
	}
	return p
}

func run(out string, ablate bool, repeats int, seed int64, jsonMode bool, parallel int, strategyName, workload, platform string, knobs exactKnobs) error {
	if err := validate(repeats, parallel, strategyName, workload, platform, knobs.prove, knobs.poolSize, knobs.poolGap); err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	sc, err := scenario.Lookup(platformOrDefault(platform), workloadOrDefault(workload))
	if err != nil {
		return err
	}
	if sc.IsDAG() {
		// Task-graph scenarios get the placement-focused report: the
		// paper's tables assume one divisible kernel and do not apply.
		if jsonMode {
			return fmt.Errorf("-json is not supported for task-graph workloads; run the text report")
		}
		start := time.Now()
		if err := experiments.DAGReport(w, platformOrDefault(platform), workloadOrDefault(workload), parallel); err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "\nreport generated in %v\n", time.Since(start).Round(time.Millisecond))
		return err
	}

	suite, err := experiments.NewScenarioSuite(platformOrDefault(platform), workloadOrDefault(workload))
	if err != nil {
		return err
	}
	suite.Repeats = repeats
	suite.Seed = seed
	suite.Parallelism = parallel
	if strat, err := core.ParseStrategy(strategyName); err != nil {
		return err
	} else if strat != nil {
		suite.Strategy = strategy.WithExactKnobs(strat, knobs.prove, knobs.poolSize, knobs.poolGap)
	}

	if jsonMode {
		return suite.WriteJSON(w)
	}
	start := time.Now()
	if err := suite.RunAll(w, ablate); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "\nreport generated in %v\n", time.Since(start).Round(time.Millisecond))
	return err
}
