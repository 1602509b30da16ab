package core_test

import (
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/scenario"
)

// TestRooflineChildBoundsMatchReferenceOnPresets walks every node of
// every shipped divisible scenario's tree — each platform x preset,
// at the preset's size and at an off-grid 0.37x, under every built-in
// objective — and requires ChildBounds to equal the per-node reference
// bit for bit on every child. The weighted objective runs at both ends
// of alpha as well as inside, and the time-bounded one both at a fixed
// 0.5 s and at 1.1x the scenario's time optimum (RunWithTimeSlack's
// slack, as checkAdmissible applies it), a bound that binds on some of
// each tree's fraction levels and not on others.
func TestRooflineChildBoundsMatchReferenceOnPresets(t *testing.T) {
	objectives := []core.Objective{
		core.TimeObjective{},
		core.EnergyObjective{},
		core.WeightedSumObjective{Alpha: 0},
		core.WeightedSumObjective{Alpha: 0.25},
		core.WeightedSumObjective{Alpha: 1},
		core.TimeBoundedObjective{TimeBoundSec: 0.5},
	}
	for _, spec := range scenario.Platforms() {
		schema, err := spec.Schema()
		if err != nil {
			t.Fatal(err)
		}
		platform := spec.Platform()
		for _, fam := range scenario.Families() {
			if fam.IsDAG() {
				continue
			}
			for _, preset := range fam.Presets {
				w, err := fam.Workload(preset.Name)
				if err != nil {
					t.Fatal(err)
				}
				for _, scale := range []float64{1, 0.37} {
					ws := w.Scaled(w.SizeMB * scale)
					fastest, err := core.Run(core.EM, &core.Instance{Schema: schema, Measurer: core.NewMeasurer(platform, ws)}, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					bounded := core.TimeBoundedObjective{TimeBoundSec: 1.1 * fastest.SearchE}
					for _, obj := range append(objectives, bounded) {
						if !core.CheckRooflineChildBounds(t, schema, platform, ws, obj) {
							t.Fatalf("%s/%s: no roofline bound", spec.Name, w.Name)
						}
					}
				}
			}
		}
	}
}

// TestRooflineBoundAdmissibleOnPlatforms runs the brute-force
// admissibility walk on every shipped platform's full schema, for every
// divisible preset at its own size: each bound on every path monotone
// and at or below every measured leaf below it, under all four
// objectives.
func TestRooflineBoundAdmissibleOnPlatforms(t *testing.T) {
	for _, spec := range scenario.Platforms() {
		schema, err := spec.Schema()
		if err != nil {
			t.Fatal(err)
		}
		platform := spec.Platform()
		for _, fam := range scenario.Families() {
			if fam.IsDAG() {
				continue
			}
			for _, preset := range fam.Presets {
				w, err := fam.Workload(preset.Name)
				if err != nil {
					t.Fatal(err)
				}
				core.CheckRooflineAdmissible(t, schema, platform, w)
			}
		}
	}
}
