package core

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
)

func TestModelsSaveLoadRoundTrip(t *testing.T) {
	platform := offload.NewPlatform()
	orig := testModels(t, platform)

	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must be bit-identical across the round trip.
	for _, probe := range []struct {
		threads int
		aff     machine.Affinity
		sizeMB  float64
	}{
		{48, machine.AffinityScatter, 1500},
		{4, machine.AffinityNone, 300},
		{24, machine.AffinityCompact, 2800},
	} {
		a, err := orig.PredictHost(probe.threads, probe.aff, probe.sizeMB)
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.PredictHost(probe.threads, probe.aff, probe.sizeMB)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("host prediction diverged: %g vs %g", a, b)
		}
	}
	da, err := orig.PredictDevice(240, machine.AffinityBalanced, 2000)
	if err != nil {
		t.Fatal(err)
	}
	db, err := loaded.PredictDevice(240, machine.AffinityBalanced, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatalf("device prediction diverged: %g vs %g", da, db)
	}
	// Headline accuracy survives.
	if loaded.HostReport.Eval.MeanPercentError != orig.HostReport.Eval.MeanPercentError {
		t.Fatal("host accuracy lost in round trip")
	}
	if loaded.Kind != BoostedTrees {
		t.Fatalf("kind = %v", loaded.Kind)
	}
}

func TestLoadedModelsDriveOptimization(t *testing.T) {
	platform := offload.NewPlatform()
	orig := testModels(t, platform)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w := offload.GenomeWorkload(dna.Cat)
	pred, err := NewPredictor(loaded, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{Schema: smallSchema(t), Measurer: NewMeasurer(platform, w), Predictor: pred}
	res, err := Run(SAML, inst, Options{Iterations: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredE() <= 0 {
		t.Fatal("loaded models produced an unusable run")
	}
}

func TestModelsFileHelpers(t *testing.T) {
	platform := offload.NewPlatform()
	orig := testModels(t, platform)
	path := filepath.Join(t.TempDir(), "models.gob")
	if err := SaveModelsFile(orig, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModelsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.DeviceReport.Eval.MeanPercentError != orig.DeviceReport.Eval.MeanPercentError {
		t.Fatal("file round trip lost accuracy numbers")
	}
	if _, err := LoadModelsFile(filepath.Join(t.TempDir(), "missing.gob")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestSaveRejectsNonBoosted(t *testing.T) {
	platform := offload.NewPlatform()
	models, err := Train(platform, smallPlan(), TrainOptions{Kind: Linear, SplitSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := models.Save(&buf); err == nil {
		t.Fatal("linear models must not persist")
	}
}

func TestLoadModelsRejectsGarbage(t *testing.T) {
	if _, err := LoadModels(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage should fail")
	}
}

// TestLoadModelsRejectsWidthMismatch: a bundle whose trees split on a
// feature past the normalizers' width, or whose normalizers are not
// numFeatures wide, fails to load; before the check such a bundle
// loaded and PredictHost indexed past the feature vector.
func TestLoadModelsRejectsWidthMismatch(t *testing.T) {
	// node and ensemble carry ml's persisted field names, which is all
	// gob matches on.
	type node struct {
		Feature     int
		Threshold   float64
		Left, Right int32
		Value       float64
	}
	type ensemble struct {
		Base, LearningRate float64
		Trees              [][]node
	}
	splitOn := func(feature int) []byte {
		var buf bytes.Buffer
		trees := [][]node{{{Feature: feature, Threshold: 0.5, Left: 1, Right: 2}, {Feature: -1, Value: 1}, {Feature: -1, Value: 2}}}
		if err := gob.NewEncoder(&buf).Encode(ensemble{LearningRate: 0.1, Trees: trees}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	norm := func(min, max int) ml.Normalizer {
		return ml.Normalizer{Min: make([]float64, min), Max: make([]float64, max)}
	}
	bundle := func(hostFeature, hostMin, hostMax int) []byte {
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(persistedModels{
			Kind:     BoostedTrees,
			HostNorm: norm(hostMin, hostMax), DeviceNorm: norm(numFeatures, numFeatures),
			HostModel: splitOn(hostFeature), DevModel: splitOn(numFeatures - 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good, err := LoadModels(bytes.NewReader(bundle(numFeatures-1, numFeatures, numFeatures)))
	if err != nil {
		t.Fatalf("valid bundle: %v", err)
	}
	if _, err := good.PredictHost(4, machine.AffinityCompact, 100); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"split past width": bundle(9, numFeatures, numFeatures),
		"split at width":   bundle(numFeatures, numFeatures, numFeatures),
		"short Min":        bundle(0, numFeatures-1, numFeatures),
		"short Max":        bundle(0, numFeatures, numFeatures-1),
		"wide normalizer":  bundle(0, numFeatures+4, numFeatures+4),
	} {
		if _, err := LoadModels(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: loaded", name)
		}
	}
}
