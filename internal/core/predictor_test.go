package core

import (
	"math"
	"sync"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/ml"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// checkPredictStateFails requires the level path to fail on state with
// the error the decode path gives: schema.Config's for a state off the
// schema, Evaluate's for one that decodes.
func checkPredictStateFails(t *testing.T, pred *Predictor, schema *space.Schema, state []int) {
	t.Helper()
	_, want := schema.Config(state)
	if want == nil {
		cfg, _ := schema.Config(state)
		_, want = pred.Evaluate(cfg)
	}
	if want == nil {
		t.Fatalf("state %v: the decode path does not fail", state)
	}
	for _, obj := range []Objective{TimeObjective{}, EnergyObjective{}} {
		_, err := newSearchProblem(schema, pred, obj, space.StepMove).Energy(state)
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("state %v under %s: level path error %v, decode path %v", state, obj.Name(), err, want)
		}
	}
}

// TestPredictorLevelTableErrorPaths: a state the level table cannot
// price fails exactly as it does without the table — a state off the
// schema with schema.Config's error, a failed side prediction or a
// side level the power model cannot price with Evaluate's — and a
// failure is not published, so the table keeps serving the states it
// can price.
func TestPredictorLevelTableErrorPaths(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	models := testModels(t, platform)
	pred, err := NewPredictor(models, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	schema := space.PaperSchema()
	for _, state := range [][]int{{6, 0, 0, 0, 0}, {0, 0, 0, 0, 41}, {-1, 0, 0, 0, 0}, {0, 3, 0, 0, 0}, {0, 0, 9, 0, 0}, {0, 0, 0, -1, 0}, {0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}} {
		checkPredictStateFails(t, pred, schema, state)
	}

	// Host predictions fail on a normalizer of the wrong width: every
	// state with a host share fails, the device-only split prices.
	broken := *models
	broken.HostNorm = &ml.Normalizer{Min: []float64{0}, Max: []float64{1}}
	bad, err := NewPredictor(&broken, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	checkPredictStateFails(t, bad, schema, []int{5, 1, 8, 0, 24})
	checkPredictStateFails(t, bad, schema, []int{5, 1, 8, 0, 40})
	deviceOnly := []int{5, 1, 8, 0, 0}
	cfg, err := schema.Config(deviceOnly)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bad.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := newSearchProblem(schema, bad, nil, space.StepMove).measure(deviceOnly); err != nil || got != want {
		t.Fatalf("device-only state: level path %+v (%v), Evaluate %+v", got, err, want)
	}

	// The paper host prices no power for balanced affinity, so its
	// levels fail wherever the host gets work, after a successful
	// prediction, and price where it gets none.
	withBalanced, err := space.NewSchema(space.SchemaSpec{
		HostThreads:      []int{24, 48},
		HostAffinities:   []machine.Affinity{machine.AffinityScatter, machine.AffinityBalanced},
		DeviceThreads:    []int{60, 240},
		DeviceAffinities: []machine.Affinity{machine.AffinityBalanced},
		Fractions:        []float64{0, 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPredictStateFails(t, pred, withBalanced, []int{1, 1, 1, 0, 1})
	for _, state := range [][]int{{1, 1, 1, 0, 0}, {1, 0, 1, 0, 1}} {
		cfg, err := withBalanced.Config(state)
		if err != nil {
			t.Fatal(err)
		}
		want, err := pred.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := newSearchProblem(withBalanced, pred, nil, space.StepMove).measure(state); err != nil || got != want {
			t.Fatalf("state %v: level path %+v (%v), Evaluate %+v", state, got, err, want)
		}
	}
}

// TestPredictorLevelTableRacingFirstSearches: eight SAML runs race their
// first searches on one fresh predictor, filling its level table
// concurrently, and each finds what the same run finds alone on
// another fresh predictor, bit for bit.
func TestPredictorLevelTableRacingFirstSearches(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	models := testModels(t, platform)
	schema := space.PaperSchema()
	const runs = 8
	search := func(pred *Predictor, seed int64) (Result, error) {
		inst := &Instance{Schema: schema, Measurer: NewMeasurer(platform, w), Predictor: pred}
		return Run(SAML, inst, Options{Iterations: 300, Seed: seed, Objective: EnergyObjective{}})
	}
	fresh := func() *Predictor {
		pred, err := NewPredictor(models, w, platform.Model())
		if err != nil {
			t.Fatal(err)
		}
		return pred
	}
	serial := fresh()
	want := make([]Result, runs)
	for i := range want {
		var err error
		if want[i], err = search(serial, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	shared := fresh()
	got := make([]Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = search(shared, int64(i+1))
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if math.Float64bits(got[i].SearchE) != math.Float64bits(want[i].SearchE) || got[i].Config != want[i].Config {
			t.Fatalf("run %d: racing %v at %g, serial %v at %g", i, got[i].Config, got[i].SearchE, want[i].Config, want[i].SearchE)
		}
	}
}
