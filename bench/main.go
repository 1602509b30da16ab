// Command bench is the end-to-end benchmark of the tuning service. It
// starts real serve.Servers (one node, or a replicated three-node
// cluster) behind loopback listeners in this process, drives them with
// two closed-loop clients over a request stream generated from the
// seed, checks every answer, and prints every metric as
// "workload metric value unit", then one JSON summary line.
//
//	go run . --workload warm-hits --seed 1 --seconds 15 --trace 0
//	go run . --workload all --seed 2 --trace 1 --spans spans.jsonl
//	go run . compare A.jsonl B.jsonl
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes the traced
// run and reports the per-layer metrics. -o appends each run's full
// report as a JSON line, the input of compare. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same requests")
	secs := fs.Float64("seconds", fullScale.seconds, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: the traced run and the per-layer metrics")
	spans := fs.String("spans", "", "with --trace 1, write the spans as JSON lines to this file")
	out := fs.String("o", "", "append each run's report as a JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: want --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	var specs []workloadSpec
	if *workload == "all" {
		specs = workloads
	} else {
		w, err := workloadByName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		specs = []workloadSpec{w}
	}
	sc := fullScale
	sc.seconds = *secs

	sum := summary{Correct: true, Metrics: map[string]value{}}
	for _, w := range specs {
		var r *report
		var err error
		if *trace == 1 {
			path := *spans
			if path != "" && len(specs) > 1 {
				ext := filepath.Ext(path)
				path = strings.TrimSuffix(path, ext) + "." + w.name + ext
			}
			r, err = runTraced(w, *seed, sc, path)
		} else {
			r, err = runUntraced(w, *seed, sc)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		r.print(stdout)
		if *out != "" {
			if err := appendJSONLine(*out, r); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for name, v := range r.Metrics {
			if len(specs) > 1 {
				name = w.name + "/" + name
			}
			sum.Metrics[name] = v
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

func appendJSONLine(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
