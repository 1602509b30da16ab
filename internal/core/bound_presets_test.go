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
// bit for bit on every child.
func TestRooflineChildBoundsMatchReferenceOnPresets(t *testing.T) {
	objectives := []core.Objective{
		core.TimeObjective{},
		core.EnergyObjective{},
		core.WeightedSumObjective{Alpha: 0.25},
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
					for _, obj := range objectives {
						if !core.CheckRooflineChildBounds(t, schema, platform, w.Scaled(w.SizeMB*scale), obj) {
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
