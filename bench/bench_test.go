package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

// smokeScale runs every workload at about 1% of fullScale with every
// check on.
var smokeScale = scale{seconds: 0.3, minSamples: 50, setupMin: 1, warmup: 10, warmKeys: 64, clusterKeys: 32}

func streamBodies(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	p, err := newPlan(name, seed, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, o := range p.setup {
		out = append(out, o.body)
	}
	for i := 0; i < n; i++ {
		o, err := p.stream(i)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o.body)
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := streamBodies(t, w.name, 7, 300)
		b := streamBodies(t, w.name, 7, 300)
		c := streamBodies(t, w.name, 8, 300)
		same, differs := len(a) == len(b), false
		for i := range a {
			same = same && bytes.Equal(a[i], b[i])
			differs = differs || i >= len(c) || !bytes.Equal(a[i], c[i])
		}
		if !same {
			t.Errorf("%s: seed 7 generated two different request lists", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated the same request list", w.name)
		}
	}
}

func TestColdStreamsNeverRepeatAKey(t *testing.T) {
	for _, name := range []string{"cold-tune", "prove-place"} {
		p, err := newPlan(name, 3, smokeScale)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, o := range p.setup {
			seen[o.key] = true
		}
		for i := 0; i < 2000; i++ {
			o, err := p.stream(i)
			if err != nil {
				t.Fatal(err)
			}
			if seen[o.key] {
				t.Fatalf("%s: request %d repeats key %s", name, i, o.key)
			}
			seen[o.key] = true
		}
	}
}

func TestZipfDraws(t *testing.T) {
	z := newZipf(1.1, 2048)
	// P(rank 0) = 1 / sum_k (k+1)^-1.1 over 2,048 ranks.
	want := z[0]
	hits := 0
	const n = 200000
	for i := 0; i < n; i++ {
		h := newHrand(1, i, 99)
		k := z.draw(&h)
		if k < 0 || k >= 2048 {
			t.Fatalf("draw %d: rank %d out of range", i, k)
		}
		if k == 0 {
			hits++
		}
	}
	if got := float64(hits) / n; math.Abs(got-want) > 0.01 {
		t.Errorf("rank 0 drawn with frequency %.4f, want %.4f", got, want)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		name string
	}{{0, "p50"}, {99, "p50"}, {100, "p90"}, {999, "p90"}, {1000, "p99"}, {50000, "p99"}} {
		if got, _ := tailRank(c.n); got != c.name {
			t.Errorf("tailRank(%d) = %s, want %s", c.n, got, c.name)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.TailName != "p99" || s.Tail != 990 || s.P50 != 500 {
		t.Errorf("summarize(1..1000) = %+v, want p50 500 and p99 990", s)
	}
	if s := summarize(xs[:500]); s.TailName != "p90" {
		t.Errorf("500 samples reported %s, want p90", s.TailName)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{2, 1}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestSelfTime(t *testing.T) {
	// root [0,100] has children [10,30] and [20,50] (overlapping: they
	// cover 40) and a child [90,120] clipped to 10; the first child has
	// a grandchild [12,18].
	spans := []span{
		{start: 0, end: 100, id: 1, name: nameReplay},
		{start: 10, end: 30, id: 2, parent: 1, name: nameCoreRun},
		{start: 20, end: 50, id: 3, parent: 1, name: nameResolve},
		{start: 90, end: 120, id: 4, parent: 1, name: nameRender},
		{start: 12, end: 18, id: 5, parent: 2, name: nameTrain},
	}
	st := selfTimes(spans)
	for name, want := range map[string]int64{"replay.request": 50, "core.run": 14, "scenario.resolve": 30, "serve.render": 30, "ml.train": 6} {
		if got := st[name].selfNS; got != want {
			t.Errorf("self time of %s = %d, want %d", name, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := make([]float64, len(base))
	faster := make([]float64, len(base))
	for i, v := range base {
		slower[i], faster[i] = v*1.2, v*0.8
	}
	if v := judge(base, slower, false, 0.1); v.text != "REGRESSION" {
		t.Errorf("20%% slower with a 10%% bound: %q", v.text)
	}
	if v := judge(base, faster, false, 0.1); v.text != "better" || v.wins != 10 {
		t.Errorf("20%% faster: %q with %d wins", v.text, v.wins)
	}
	if v := judge(base, base, false, 0.1); v.text != "within bound" {
		t.Errorf("same runs: %q", v.text)
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130, 80, 120}
	if v := judge(noisy, base, false, 0.1); v.text != "unresolved" {
		t.Errorf("spread wider than the bound: %q", v.text)
	}
	// A spread wider than the bound, a median 5% worse, yet every run
	// slower than every run of base: a regression. Swapped, a gain.
	longTail := []float64{103, 103, 104, 104, 105, 105, 130, 140, 150, 160}
	if v := judge(base, longTail, false, 0.1); v.text != "REGRESSION (every run)" {
		t.Errorf("every run slower, spread wider than the bound: %q", v.text)
	}
	if v := judge(longTail, base, false, 0.1); v.text != "better (every run)" {
		t.Errorf("every run faster, spread wider than the bound: %q", v.text)
	}
	if v := judge(noisy, slower, false, 0.1); v.text != "REGRESSION" {
		t.Errorf("median 20%% worse with a wide spread: %q", v.text)
	}
}

func TestClassLatencies(t *testing.T) {
	// Two classes, one ten times slower than the other: halving the
	// fast class's latency halves its median and moves the summary by
	// sqrt(2), though the pooled median would stay with the slow class.
	w := workloadSpec{classes: []uint8{classProof, classPlacement}, tails: []uint8{classProof, classPlacement}}
	var fast, slow []sample
	for i := 0; i < 4000; i++ {
		fast = append(fast, sample{class: classPlacement, ns: 1e6})
		slow = append(slow, sample{class: classProof, ns: 10e6})
	}
	p50, tail := classLatencies(newReport("x", 1, false), w, append(fast, slow...), 1)
	if math.Abs(p50-math.Sqrt(10)) > 1e-9 || math.Abs(tail-math.Sqrt(10)) > 1e-9 {
		t.Errorf("class summaries %v %v, want sqrt(10)", p50, tail)
	}
	for i := range fast {
		fast[i].ns /= 2
	}
	p50b, _ := classLatencies(newReport("x", 1, false), w, append(fast, slow...), 1)
	if math.Abs(p50/p50b-math.Sqrt2) > 1e-9 {
		t.Errorf("halving one class moved the summary by %v, want sqrt(2)", p50/p50b)
	}
}

func TestSpeedProbe(t *testing.T) {
	p, err := newSpeedProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	xs := p.sample(3)
	if len(xs) != 3 {
		t.Fatalf("sample(3) = %v", xs)
	}
	for _, x := range xs {
		if !(x > 0) {
			t.Errorf("kernel timed at %v ns", x)
		}
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	var def struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
		RunSeconds float64 `json:"run_seconds"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Paths) != 1 || def.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", def.Paths)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in code", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, names, units, betters []string, code []metricDef) {
		if len(names) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(names), len(code))
			return
		}
		for i, m := range code {
			if names[i] != m.name || units[i] != m.unit || betters[i] != m.better {
				t.Errorf("%s %d: %s %s %s in BENCHMARK.json, %s %s %s in code", kind, i, names[i], units[i], betters[i], m.name, m.unit, m.better)
			}
		}
	}
	var n, u, bt []string
	for _, m := range def.EndToEnd {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", n, u, bt, endToEnd)
	n, u, bt = nil, nil, nil
	for _, m := range def.PerLayer {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("per_layer", n, u, bt, perLayer)
	if def.RunSeconds != fullScale.seconds {
		t.Errorf("run_seconds %v, code's full scale %v", def.RunSeconds, fullScale.seconds)
	}
}

// TestSmoke runs every workload at smokeScale, then the traced run of
// the warm workload (whose keys span SAM, DAG placement and exact
// proofs), with every correctness check on.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		r, err := runUntraced(w, 5, smokeScale)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: %d checks failed: %s", w.name, r.Failed, r.Errors)
		}
		for _, m := range endToEnd {
			v, ok := r.Metrics[m.name]
			if !ok || math.IsNaN(v.Value) || v.Value <= 0 {
				t.Errorf("%s: metric %s = %v (reported %v)", w.name, m.name, v.Value, ok)
			}
		}
		if len(r.Metrics) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics reported, want %d", w.name, len(r.Metrics), len(endToEnd))
		}
	}
	w, _ := workloadByName("warm-hits")
	r, err := runTraced(w, 5, smokeScale, "")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Info["replay_mismatches"].Value != 0 || r.Info["replayed"].Value == 0 {
		t.Errorf("traced run: correct=%v replayed=%v mismatches=%v: %s", r.Correct, r.Info["replayed"], r.Info["replay_mismatches"], r.Errors)
	}
	if len(r.Metrics) != len(perLayer) {
		t.Errorf("traced run reported %d per-layer metrics, want %d", len(r.Metrics), len(perLayer))
	}
}
