package ml

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestCrossValidate(t *testing.T) {
	d := synth(300, 2, 21, 0.05, func(x []float64) float64 { return 3*x[0] + x[1] })
	evals, err := CrossValidate(d, 5, 1, func(train *Dataset) (Regressor, error) {
		return FitLinear(train, 1e-9)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(evals) != 5 {
		t.Fatalf("folds = %d, want 5", len(evals))
	}
	total := 0
	for _, e := range evals {
		total += e.N
		if e.MeanPercentError > 5 {
			t.Errorf("fold percent error %.2f%% too high for a linear ground truth", e.MeanPercentError)
		}
	}
	if total != d.Len() {
		t.Fatalf("folds cover %d samples, want %d", total, d.Len())
	}
	summary, err := SummarizeCrossValidation(evals)
	if err != nil {
		t.Fatal(err)
	}
	if summary.Folds != 5 || summary.MeanPercentError <= 0 {
		t.Fatalf("summary = %+v", summary)
	}
	if summary.WorstFoldPercentError < summary.MeanPercentError {
		t.Fatal("worst fold cannot beat the mean")
	}
}

func TestCrossValidateValidation(t *testing.T) {
	d := synth(10, 1, 22, 0, func(x []float64) float64 { return x[0] })
	trainer := func(train *Dataset) (Regressor, error) { return FitLinear(train, 0) }
	if _, err := CrossValidate(d, 1, 1, trainer); err == nil {
		t.Error("k=1 should fail")
	}
	if _, err := CrossValidate(d, 20, 1, trainer); err == nil {
		t.Error("more folds than samples should fail")
	}
	if _, err := CrossValidate(d, 2, 1, nil); err == nil {
		t.Error("nil trainer should fail")
	}
	if _, err := SummarizeCrossValidation(nil); err == nil {
		t.Error("empty evals should fail")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	d := synth(100, 2, 23, 0.1, func(x []float64) float64 { return x[0] * x[1] })
	trainer := func(train *Dataset) (Regressor, error) {
		return FitBoostedTrees(train, BoostOptions{Rounds: 20, Seed: 1})
	}
	a, err := CrossValidate(d, 4, 9, trainer)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(d, 4, 9, trainer)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].MeanPercentError != b[i].MeanPercentError {
			t.Fatal("same seed must reproduce folds")
		}
	}
}

func TestFeatureImportanceIdentifiesRelevantFeature(t *testing.T) {
	// y depends strongly on x0, weakly on x1, not at all on x2.
	rng := rand.New(rand.NewSource(31))
	d := &Dataset{}
	for i := 0; i < 600; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		d.Append(x, 10*x[0]+0.5*x[1])
	}
	m, err := FitBoostedTrees(d, BoostOptions{Rounds: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	imp, err := FeatureImportance(m, d)
	if err != nil {
		t.Fatal(err)
	}
	if imp[0] <= imp[1] || imp[1] <= imp[2] {
		t.Fatalf("importance ordering wrong: %v (want x0 > x1 > x2)", imp)
	}
	if imp[2] > imp[0]*0.05 {
		t.Errorf("irrelevant feature importance %g too large vs %g", imp[2], imp[0])
	}
}

func TestFeatureImportanceValidation(t *testing.T) {
	d := synth(10, 1, 32, 0, func(x []float64) float64 { return x[0] })
	if _, err := FeatureImportance(nil, d); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := FeatureImportance(&LinearModel{Weights: []float64{1, 0}}, &Dataset{}); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestBoostedTreesSaveLoadRoundTrip(t *testing.T) {
	d := synth(400, 3, 33, 0.05, func(x []float64) float64 { return x[0]*x[1] - x[2] })
	orig, err := FitBoostedTrees(d, BoostOptions{Rounds: 40, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBoostedTrees(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumTrees() != orig.NumTrees() {
		t.Fatalf("tree count %d != %d", loaded.NumTrees(), orig.NumTrees())
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		a, b := orig.Predict(x), loaded.Predict(x)
		if a != b {
			t.Fatalf("prediction diverges after reload: %g vs %g", a, b)
		}
	}
}

func TestLoadBoostedTreesRejectsGarbage(t *testing.T) {
	if _, err := LoadBoostedTrees(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("garbage input should fail")
	}
	// A structurally broken payload: learning rate out of range.
	d := synth(50, 1, 35, 0, func(x []float64) float64 { return x[0] })
	m, err := FitBoostedTrees(d, BoostOptions{Rounds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBoostedTrees(bytes.NewReader(buf.Bytes()[:10])); err == nil {
		t.Error("truncated input should fail")
	}
}

func TestTreeValidateCatchesCorruption(t *testing.T) {
	good := &Tree{nodes: []treeNode{{feature: 0, threshold: 1, left: 1, right: 2}, {feature: -1}, {feature: -1}}}
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	outOfRange := &Tree{nodes: []treeNode{{feature: 0, left: 5, right: 1}, {feature: -1}}}
	if err := outOfRange.validate(); err == nil {
		t.Error("out-of-range child should fail")
	}
	selfLoop := &Tree{nodes: []treeNode{{feature: 0, left: 0, right: 0}}}
	if err := selfLoop.validate(); err == nil {
		t.Error("self-loop should fail")
	}
	backEdge := &Tree{nodes: []treeNode{{feature: 0, left: 1, right: 2}, {feature: 0, left: 0, right: 2}, {feature: -1}}}
	if err := backEdge.validate(); err == nil {
		t.Error("child pointing back to its parent should fail")
	}
}

// saveCorrupt gob-encodes an ensemble of hand-built trees, as a
// corrupted or hostile model file would carry them.
func saveCorrupt(t testing.TB, trees ...[]persistedNode) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(persistedBoosted{LearningRate: 0.1, Trees: trees}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadBoostedTreesRejectsCycle: a two-node back edge (node 1's left
// child is node 0) used to load, after which Predict looped forever on
// any input routed left at both nodes.
func TestLoadBoostedTreesRejectsCycle(t *testing.T) {
	cyclic := saveCorrupt(t, []persistedNode{
		{Feature: 0, Threshold: 1, Left: 1, Right: 2},
		{Feature: 0, Threshold: 1, Left: 0, Right: 2},
		{Feature: -1, Value: 3},
	})
	if _, err := LoadBoostedTrees(bytes.NewReader(cyclic)); err == nil {
		t.Fatal("cyclic tree loaded")
	}
}

// FuzzLoadBoostedTrees: Load never panics on arbitrary bytes, and a
// model it accepts predicts in bounded time, never looping.
func FuzzLoadBoostedTrees(f *testing.F) {
	d := synth(60, 2, 36, 0, func(x []float64) float64 { return x[0] - x[1] })
	m, err := FitBoostedTrees(d, BoostOptions{Rounds: 3, Tree: TreeOptions{MaxDepth: 3, MinLeaf: 2}, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := m.Save(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add(saveCorrupt(f, []persistedNode{
		{Feature: 0, Threshold: 1, Left: 1, Right: 2},
		{Feature: 0, Threshold: 1, Left: 0, Right: 2},
		{Feature: -1, Value: 3},
	}))
	f.Add([]byte("not a gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := LoadBoostedTrees(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Load cannot know the feature dimension, so only probe models
		// whose split features fit the probe vectors.
		const dim = 8
		for _, tree := range loaded.trees {
			for _, n := range tree.nodes {
				if n.feature >= dim {
					return
				}
			}
		}
		for _, v := range []float64{math.Inf(-1), -1, 0, 0.5, 1, math.Inf(1), math.NaN()} {
			x := make([]float64, dim)
			for i := range x {
				x[i] = v
			}
			loaded.Predict(x)
		}
	})
}

func TestCrossValidationOfPaperModelShape(t *testing.T) {
	// Sanity: BDTR cross-validated on a performance-like surface keeps a
	// stable error across folds (low std deviation).
	f := func(x []float64) float64 { return 100/x[0] + 0.01*x[1] }
	rng := rand.New(rand.NewSource(36))
	d := &Dataset{}
	for i := 0; i < 500; i++ {
		x := []float64{float64(rng.Intn(48) + 1), rng.Float64() * 3000}
		d.Append(x, f(x)*(1+rng.NormFloat64()*0.03))
	}
	evals, err := CrossValidate(d, 4, 2, func(train *Dataset) (Regressor, error) {
		return FitBoostedTrees(train, BoostOptions{Rounds: 60, Seed: 1})
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := SummarizeCrossValidation(evals)
	if err != nil {
		t.Fatal(err)
	}
	if s.StdDevPercentError > s.MeanPercentError {
		t.Fatalf("fold errors unstable: mean %.2f%%, std %.2f%%", s.MeanPercentError, s.StdDevPercentError)
	}
	if math.IsNaN(s.StdDevPercentError) {
		t.Fatal("NaN in summary")
	}
}

// TestEvaluatePredictionsMatchesEvaluate: aggregating predictions made
// up front gives exactly what Evaluate computes by predicting itself.
func TestEvaluatePredictionsMatchesEvaluate(t *testing.T) {
	d := synth(200, 2, 37, 0.05, func(x []float64) float64 { return 2*x[0] + x[1] + 1 })
	m, err := FitBoostedTrees(d, BoostOptions{Rounds: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(m, d)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, d.Len())
	for i, x := range d.X {
		preds[i] = m.Predict(x)
	}
	got, err := EvaluatePredictions(d, preds)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("EvaluatePredictions = %+v, Evaluate = %+v", got, want)
	}
	if _, err := EvaluatePredictions(d, preds[1:]); err == nil {
		t.Error("short prediction slice should fail")
	}
	preds[3] = math.NaN()
	if _, err := EvaluatePredictions(d, preds); err == nil {
		t.Error("non-finite prediction should fail")
	}
}
