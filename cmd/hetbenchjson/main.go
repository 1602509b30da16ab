// Command hetbenchjson runs the tracked hot-path microbenchmarks and
// emits the repo's perf record (BENCH_<pr>.json: ns/op, allocs/op and
// B/op per benchmark), optionally gating against a previous record.
//
// Usage:
//
//	hetbenchjson -o BENCH_6.json                 # record
//	hetbenchjson -compare BENCH_6.json           # run + gate (exit 1 on regression)
//	hetbenchjson -compare BENCH_6.json -skip-ns  # cross-machine gate (exact alloc counts only)
//	hetbenchjson -bench model-training -compare BENCH_6.json  # run and gate one rung
//
// allocs/op and B/op are exact counts, so the allocation gate is
// deterministic on any machine; ns/op is hardware-dependent — compare
// it only against a record from comparable hardware, or pass -skip-ns.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"slices"

	"hetopt/internal/benchjson"
)

func main() {
	var (
		out      = flag.String("o", "", "write the fresh record to this file (default stdout)")
		compare  = flag.String("compare", "", "baseline BENCH_*.json to gate against; exit 1 on regression")
		nsTol    = flag.Float64("ns-tol", 0.10, "allowed fractional ns/op growth vs the baseline")
		allocTol = flag.Float64("alloc-tol", 0.10, "allowed fractional allocs/op and B/op growth vs the baseline")
		skipNs   = flag.Bool("skip-ns", false, "skip the ns/op comparison (use for cross-machine baselines)")
		list     = flag.Bool("list", false, "list tracked benchmark names and exit")
		bench    = flag.String("bench", "", "run only the tracked benchmarks whose name matches this regexp; -compare gates only those")
	)
	flag.Parse()

	re, err := regexp.Compile(*bench)
	if err != nil {
		fatal(err)
	}
	defs := slices.DeleteFunc(benchjson.Defs(), func(d benchjson.Def) bool { return !re.MatchString(d.Name) })
	if len(defs) == 0 {
		fatal(fmt.Errorf("no tracked benchmark matches %q", *bench))
	}
	if *list {
		for _, d := range defs {
			fmt.Println(d.Name)
		}
		return
	}

	fmt.Fprintf(os.Stderr, "hetbenchjson: running %d tracked benchmarks...\n", len(defs))
	cur := benchjson.Run(defs)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := benchjson.Write(w, cur); err != nil {
		fatal(err)
	}

	if *compare != "" {
		old, err := benchjson.ReadFile(*compare)
		if err != nil {
			fatal(err)
		}
		old.Benchmarks = slices.DeleteFunc(old.Benchmarks, func(r benchjson.Record) bool { return !re.MatchString(r.Name) })
		problems := benchjson.Compare(old, cur, benchjson.CompareOptions{
			NsTolerance:    *nsTol,
			AllocTolerance: *allocTol,
			SkipNs:         *skipNs,
		})
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "REGRESSION:", p)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "hetbenchjson: no regressions vs %s\n", *compare)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hetbenchjson:", err)
	os.Exit(1)
}
