package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain compares two sets of runs (JSON lines written with -o),
// A the baseline and B the candidate, metric by metric and workload by
// workload: each side's median and quartiles, B's win fraction over the
// pairs (A's i-th run against B's i-th), and a verdict. B's median
// worse than A's by more than the bound is a regression. Otherwise a
// metric whose spread on either side is wider than its bound is
// unresolved, unless every B run is worse than every A run (a
// regression) or better (a gain). A gain within the spread needs B to
// win at least nine tenths of the pairs and the medians to differ by
// more than A's interquartile distance. Each request class's latency
// lines are judged the same way. It also flags runs of the same seed
// that disagree on the result digest or on answer quality.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-bench BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	var def benchmarkFile
	if err := readJSON(*benchPath, &def); err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	a, err := readReports(fs.Arg(0))
	if err == nil {
		var b []*report
		b, err = readReports(fs.Arg(1))
		if err == nil {
			bad := compareReports(stdout, def, a, b)
			if bad {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "bench compare:", err)
	return 2
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// readReports reads the untraced run reports of a JSON-lines file.
func readReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace && r.Workload != "" {
			out = append(out, &r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run reports", path)
	}
	return out, nil
}

// verdict classifies one metric x workload comparison.
type verdict struct {
	medA, q1A, q3A, medB, q1B, q3B float64
	spreadA, spreadB               float64 // interquartile distance / median
	wins, pairs                    int
	change                         float64 // B relative to A, positive = worse
	text                           string
}

func judge(a, b []float64, higherBetter bool, bound float64) verdict {
	var v verdict
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if (higherBetter && b[i] > a[i]) || (!higherBetter && b[i] < a[i]) {
			v.wins++
		}
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	v.q1A, v.medA, v.q3A = quartiles(sa)
	v.q1B, v.medB, v.q3B = quartiles(sb)
	v.change = (v.medB - v.medA) / math.Abs(v.medA)
	if higherBetter {
		v.change = -v.change
	}
	v.spreadA, v.spreadB = relSpread(sa), relSpread(sb)
	// sa and sb are sorted: B's worst run against A's best, and back.
	allBetter := (higherBetter && sb[0] > sa[len(sa)-1]) || (!higherBetter && sb[len(sb)-1] < sa[0])
	allWorse := (higherBetter && sb[len(sb)-1] < sa[0]) || (!higherBetter && sb[0] > sa[len(sa)-1])
	switch {
	case v.pairs == 0:
		v.text = "no pairs"
	case v.change > bound:
		v.text = "REGRESSION"
	case v.spreadA > bound || v.spreadB > bound:
		switch {
		case allWorse:
			v.text = "REGRESSION (every run)"
		case allBetter:
			v.text = "better (every run)"
		default:
			v.text = "unresolved"
		}
	case float64(v.wins) >= 0.9*float64(v.pairs) && math.Abs(v.medB-v.medA) > v.q3A-v.q1A:
		v.text = "better"
	default:
		v.text = "within bound"
	}
	return v
}

// compareReports prints the comparison table and reports whether any
// metric regressed or any determinism check failed.
func compareReports(w io.Writer, def benchmarkFile, a, b []*report) bool {
	byWorkload := func(rs []*report) map[string][]*report {
		m := map[string][]*report{}
		for _, r := range rs {
			m[r.Workload] = append(m[r.Workload], r)
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	var names []string
	for n := range wa {
		if _, ok := wb[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	bad := false
	fmt.Fprintf(w, "%-12s %-16s %12s %25s %12s %25s %8s %8s %8s %6s %7s  %s\n",
		"workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "A spread", "B spread", "change", "B wins", "bound", "verdict")
	row := func(workload, metric string, xa, xb []float64, higher bool, bound float64) {
		v := judge(xa, xb, higher, bound)
		if strings.HasPrefix(v.text, "REGRESSION") {
			bad = true
		}
		fmt.Fprintf(w, "%-12s %-16s %12.5g [%10.5g, %10.5g] %12.5g [%10.5g, %10.5g] %7.1f%% %7.1f%% %+7.1f%% %3d/%-2d %6.1f%%  %s\n",
			workload, metric, v.medA, v.q1A, v.q3A, v.medB, v.q1B, v.q3B, 100*v.spreadA, 100*v.spreadB, 100*v.change, v.wins, v.pairs, 100*bound, v.text)
	}
	bounds := map[string]float64{}
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	for _, n := range names {
		for _, m := range def.EndToEnd {
			var xa, xb []float64
			for _, r := range wa[n] {
				xa = append(xa, r.Metrics[m.Name].Value)
			}
			for _, r := range wb[n] {
				xb = append(xb, r.Metrics[m.Name].Value)
			}
			row(n, m.Name, xa, xb, m.Better == "higher", m.Bound)
		}
		// Each request class's own median and p99, held to the bound of
		// the summary they enter, so a regression of one class shows
		// even where the geometric mean dilutes it.
		for _, c := range classNames {
			for _, q := range []string{"p50", "p99"} {
				name := c + "_" + q + "_ms"
				xa, okA := infoValues(wa[n], name)
				xb, okB := infoValues(wb[n], name)
				if okA && okB {
					row(n, name, xa, xb, false, bounds["class_"+q+"_ms"])
				}
			}
		}
	}
	if determinismMismatch(w, append(append([]*report(nil), a...), b...)) {
		bad = true
	}
	return bad
}

// infoValues collects one extra line's value from every run; ok is
// false unless every run printed it.
func infoValues(rs []*report, name string) (xs []float64, ok bool) {
	for _, r := range rs {
		v, has := r.Info[name]
		if !has {
			return nil, false
		}
		xs = append(xs, v.Value)
	}
	return xs, len(xs) > 0
}

// determinismMismatch checks the runs that must agree exactly: those of
// one workload and seed, whose digest and answer quality cover the same
// fixed prefix of the same request list.
func determinismMismatch(w io.Writer, rs []*report) bool {
	groups := map[string][]*report{}
	for _, r := range rs {
		k := fmt.Sprintf("%s seed=%d", r.Workload, r.Seed)
		groups[k] = append(groups[k], r)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad, checked := false, 0
	for _, k := range keys {
		g := groups[k]
		if len(g) < 2 {
			continue
		}
		checked++
		for _, r := range g[1:] {
			for _, field := range []string{"gap_pct", "experiments_pct"} {
				if r.Info[field] != g[0].Info[field] {
					fmt.Fprintf(w, "MISMATCH %s: %s %v vs %v\n", k, field, g[0].Info[field].Value, r.Info[field].Value)
					bad = true
				}
			}
			if r.Digest != g[0].Digest || r.DigestKeys != g[0].DigestKeys {
				fmt.Fprintf(w, "MISMATCH %s: result_digest %s vs %s\n", k, g[0].Digest, r.Digest)
				bad = true
			}
		}
	}
	fmt.Fprintf(w, "determinism: %d groups of same-seed runs compared, mismatch=%v\n", checked, bad)
	for _, r := range rs {
		if !r.Correct {
			fmt.Fprintf(w, "FAILED RUN %s seed=%d: %s\n", r.Workload, r.Seed, r.Errors)
			bad = true
		}
	}
	return bad
}
