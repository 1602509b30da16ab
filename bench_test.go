package hetopt

// The benchmark harness regenerates every table and figure of the paper
// (DESIGN.md maps each benchmark to its artifact). Benchmarks that need
// the trained performance models share one lazily initialized experiment
// suite; model training happens outside the timed region.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"hetopt/internal/automata"
	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/experiments"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
	"hetopt/internal/parem"
	"hetopt/internal/space"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
	benchErr   error
	benchFig9  []experiments.MethodComparison
)

func suiteForBench(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() {
		benchSuite = experiments.NewSuite()
		benchSuite.Repeats = 2 // keep bench wall-time bounded
		_, benchErr = benchSuite.Models()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSuite
}

func fig9ForBench(b *testing.B) []experiments.MethodComparison {
	b.Helper()
	s := suiteForBench(b)
	if benchFig9 == nil {
		mcs, err := s.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		benchFig9 = mcs
	}
	return benchFig9
}

// BenchmarkFig2 regenerates the motivational sweep (Figure 2 a-c).
func BenchmarkFig2(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series, err := s.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if len(series) != 3 {
			b.Fatal("wrong scenario count")
		}
	}
}

// BenchmarkTable1Enumeration measures a full enumeration (EM) of the
// 19,926-configuration space (Table I / Section IV-C).
func BenchmarkTable1Enumeration(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	w := offload.GenomeWorkload(dna.Human)
	inst := &core.Instance{Schema: s.Schema, Measurer: core.NewMeasurer(s.Platform, w)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.EM, inst, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.SearchEvaluations != 19926 {
			b.Fatal("enumeration incomplete")
		}
	}
}

// BenchmarkEnumerationParallel compares sequential and sharded EM
// enumeration of the full 19,926-configuration space: identical results,
// wall-clock scaling with workers (see DESIGN.md, "The search layer").
func BenchmarkEnumerationParallel(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	w := offload.GenomeWorkload(dna.Human)
	inst := &core.Instance{Schema: s.Schema, Measurer: core.NewMeasurer(s.Platform, w)}
	for _, p := range []int{1, 2, 4, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.EM, inst, core.Options{Parallelism: p})
				if err != nil {
					b.Fatal(err)
				}
				if res.SearchEvaluations != 19926 {
					b.Fatal("enumeration incomplete")
				}
			}
		})
	}
}

// BenchmarkSAMMultiChain compares sequential and concurrent execution of
// 4 independent SAM annealing chains sharing the evaluation cache; the
// winner is identical at every parallelism level.
func BenchmarkSAMMultiChain(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	w := offload.GenomeWorkload(dna.Human)
	inst := &core.Instance{Schema: s.Schema, Measurer: core.NewMeasurer(s.Platform, w)}
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := core.Run(core.SAM, inst, core.Options{
					Iterations:  2000,
					Seed:        1,
					Restarts:    4,
					Parallelism: p,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.SearchEvaluations != 4*2001 {
					b.Fatal("chain budget mismatch")
				}
			}
		})
	}
}

// BenchmarkSAMLMultiChain is the prediction-driven variant: 4 SAML
// chains over the shared memoized predictor.
func BenchmarkSAMLMultiChain(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	w := offload.GenomeWorkload(dna.Human)
	models, err := s.Models()
	if err != nil {
		b.Fatal(err)
	}
	pred, err := core.NewPredictor(models, w, s.Platform.Model())
	if err != nil {
		b.Fatal(err)
	}
	inst := &core.Instance{Schema: s.Schema, Measurer: core.NewMeasurer(s.Platform, w), Predictor: pred}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(core.SAML, inst, core.Options{
					Iterations:  2000,
					Seed:        1,
					Restarts:    4,
					Parallelism: p,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelTraining measures the full Figure 4 pipeline: generating
// 7,200 experiments and fitting both BDTR models.
func BenchmarkModelTraining(b *testing.B) {
	b.ReportAllocs()
	platform := offload.NewPlatform()
	plan := core.PaperTrainingPlan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Train(platform, plan, core.TrainOptions{SplitSeed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5HostPrediction regenerates the host measured-vs-predicted
// curves.
func BenchmarkFig5HostPrediction(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6DevicePrediction regenerates the device curves.
func BenchmarkFig6DevicePrediction(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ErrorHistogram regenerates the host error histogram.
func BenchmarkFig7ErrorHistogram(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eh, err := s.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		if eh.Hist.Total() == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkFig8ErrorHistogram regenerates the device error histogram.
func BenchmarkFig8ErrorHistogram(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4HostAccuracy regenerates the per-thread-count host
// accuracy table and reports the average percent error as a metric.
func BenchmarkTable4HostAccuracy(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	var last experiments.AccuracyTable
	for i := 0; i < b.N; i++ {
		at, err := s.Table4()
		if err != nil {
			b.Fatal(err)
		}
		last = at
	}
	b.ReportMetric(last.AvgPercent, "pct-err")
}

// BenchmarkTable5DeviceAccuracy regenerates the device accuracy table.
func BenchmarkTable5DeviceAccuracy(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	var last experiments.AccuracyTable
	for i := 0; i < b.N; i++ {
		at, err := s.Table5()
		if err != nil {
			b.Fatal(err)
		}
		last = at
	}
	b.ReportMetric(last.AvgPercent, "pct-err")
}

// BenchmarkFig9MethodComparison runs the full per-genome method
// comparison (EM, EML, SAM, SAML across all budgets) for one genome.
func BenchmarkFig9MethodComparison(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MethodComparisonFor(offload.GenomeWorkload(dna.Human)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6PercentDifference derives and renders Table VI from the
// cached comparison, reporting the 1000-iteration average percent
// difference (paper: 10.13%).
func BenchmarkTable6PercentDifference(b *testing.B) {
	b.ReportAllocs()
	mcs := fig9ForBench(b)
	b.ResetTimer()
	var dt experiments.DifferenceTable
	for i := 0; i < b.N; i++ {
		dt = experiments.Table6(mcs)
		if experiments.RenderDifferenceTable(dt, "Table VI") == "" {
			b.Fatal("empty render")
		}
	}
	for i, it := range dt.Iterations {
		if it == 1000 {
			b.ReportMetric(dt.Average[i], "pct-diff@1000")
		}
	}
}

// BenchmarkTable7AbsoluteDifference derives Table VII.
func BenchmarkTable7AbsoluteDifference(b *testing.B) {
	b.ReportAllocs()
	mcs := fig9ForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dt := experiments.Table7(mcs)
		if experiments.RenderDifferenceTable(dt, "Table VII") == "" {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkTable8SpeedupVsHost derives Table VIII, reporting the maximal
// 1000-iteration speedup (paper: 1.74x).
func BenchmarkTable8SpeedupVsHost(b *testing.B) {
	b.ReportAllocs()
	mcs := fig9ForBench(b)
	b.ResetTimer()
	var st experiments.SpeedupTable
	for i := 0; i < b.N; i++ {
		st = experiments.Table8(mcs)
	}
	b.ReportMetric(st.MaxSpeedup(1000), "speedup@1000")
}

// BenchmarkTable9SpeedupVsDevice derives Table IX (paper: 2.18x).
func BenchmarkTable9SpeedupVsDevice(b *testing.B) {
	b.ReportAllocs()
	mcs := fig9ForBench(b)
	b.ResetTimer()
	var st experiments.SpeedupTable
	for i := 0; i < b.N; i++ {
		st = experiments.Table9(mcs)
	}
	b.ReportMetric(st.MaxSpeedup(1000), "speedup@1000")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationCoolingRate probes SA initial-temperature sensitivity.
func BenchmarkAblationCoolingRate(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationCoolingRate(offload.GenomeWorkload(dna.Human), 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNeighborhood probes the SA neighborhood structure.
func BenchmarkAblationNeighborhood(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationNeighborhood(offload.GenomeWorkload(dna.Human), 500); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRegressors compares BDTR vs linear vs Poisson end to
// end (Section III-B).
func BenchmarkAblationRegressors(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationRegressors(offload.GenomeWorkload(dna.Human)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBoostingRounds probes boosted-tree capacity.
func BenchmarkAblationBoostingRounds(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AblationBoosting(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullReport regenerates the entire evaluation (all tables and
// figures, no ablations), the equivalent of cmd/hetbench.
func BenchmarkFullReport(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunAll(io.Discard, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension benches (beyond the paper) ---

// BenchmarkExtMultiAccelerator tunes the multi-Phi extension (1 and 2
// cards).
func BenchmarkExtMultiAccelerator(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtMultiDevice(offload.GenomeWorkload(dna.Human), 2, 1500)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkExtDynamicScheduling sweeps the dynamic self-scheduling
// baseline against the static EM optimum.
func BenchmarkExtDynamicScheduling(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.ExtDynamicScheduling(offload.GenomeWorkload(dna.Human)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtStrategyComparison ranks every search strategy — and the
// racing portfolio over the shared evaluation cache — across the three
// objectives under an equal per-worker budget.
func BenchmarkExtStrategyComparison(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.StrategyComparison(offload.GenomeWorkload(dna.Human), 500)
		if err != nil {
			b.Fatal(err)
		}
		if !res.PortfolioNeverWorse {
			b.Fatal("portfolio worse than its best member")
		}
	}
}

// BenchmarkExtAdaptiveRefinement runs the adaptive pipeline (SAML + 60
// measured refinements) for all genomes.
func BenchmarkExtAdaptiveRefinement(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := s.ExtAdaptive(500, 60)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatal("wrong row count")
		}
	}
}

// BenchmarkExtSizeSweep tunes the distribution across input sizes via
// EML.
func BenchmarkExtSizeSweep(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	sizes := []float64{50, 200, 800, 3246}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ExtSizeSweep(offload.GenomeWorkload(dna.Human), sizes); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJSONReport builds and encodes the machine-readable report.
func BenchmarkJSONReport(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate benches ---

// BenchmarkParemStrategies compares the parallel matching strategies on
// 8 MiB of synthetic DNA (the PaREM substrate the workload is built on).
func BenchmarkParemStrategies(b *testing.B) {
	b.ReportAllocs()
	d, err := automata.CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		b.Fatal(err)
	}
	text := dna.NewGenerator(dna.Human, 3).Generate(8 << 20)
	want := d.CountMatches(text)
	for _, s := range []parem.Strategy{parem.Sequential, parem.WarmUp, parem.Enumerative} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				res, err := parem.Count(d, text, parem.Options{Strategy: s, Workers: 8})
				if err != nil {
					b.Fatal(err)
				}
				if res.Matches != want {
					b.Fatal("count mismatch")
				}
			}
		})
	}
}

// BenchmarkMeasurement measures the cost of one simulated experiment.
func BenchmarkMeasurement(b *testing.B) {
	b.ReportAllocs()
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	cfg := space.Config{
		HostThreads: 48, HostAffinity: AffinityScatter,
		DeviceThreads: 240, DeviceAffinity: AffinityBalanced,
		HostFraction: 60,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := platform.Measure(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrediction measures one memoised-miss BDTR prediction.
func BenchmarkPrediction(b *testing.B) {
	b.ReportAllocs()
	s := suiteForBench(b)
	models, err := s.Models()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := models.PredictHost(48, AffinityScatter, float64(1+i%3000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBoostedTraining measures fitting one BDTR model on the host
// half-grid.
func BenchmarkBoostedTraining(b *testing.B) {
	b.ReportAllocs()
	platform := offload.NewPlatform()
	data, err := core.GenerateHostData(platform, core.PaperTrainingPlan())
	if err != nil {
		b.Fatal(err)
	}
	train, _, err := data.Split(0.5, 7)
	if err != nil {
		b.Fatal(err)
	}
	opt := ml.BoostOptions{Rounds: 100, LearningRate: 0.1, Tree: ml.TreeOptions{MaxDepth: 6, MinLeaf: 5}, Subsample: 0.9, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.FitBoostedTrees(train, opt); err != nil {
			b.Fatal(err)
		}
	}
}
