package offload_test

import (
	"math"
	"testing"

	"hetopt/internal/scenario"
)

// TestMeasureTableMatchesMeasureFullOnPresets is the exhaustive
// identity check: on every state of every shipped platform x divisible
// preset, at sizes {0.5, 1, 2, 0.37}x, the level
// table itself serves the measurement and it equals MeasureFull bit for
// bit — both times and both energies.
func TestMeasureTableMatchesMeasureFullOnPresets(t *testing.T) {
	states := 0
	for _, spec := range scenario.Platforms() {
		schema, err := spec.Schema()
		if err != nil {
			t.Fatal(err)
		}
		p := spec.Platform()
		for _, fam := range scenario.Families() {
			if fam.IsDAG() {
				continue
			}
			for _, preset := range fam.Presets {
				base, err := fam.Workload(preset.Name)
				if err != nil {
					t.Fatal(err)
				}
				for _, scale := range []float64{0.5, 1, 2, 0.37} {
					w := base.Scaled(base.SizeMB * scale)
					mt := p.NewMeasureTable(w, schema)
					for ord := 0; ord < schema.Size(); ord++ {
						idx, err := schema.Space().Unflatten(ord)
						if err != nil {
							t.Fatal(err)
						}
						cfg, err := schema.Config(idx)
						if err != nil {
							t.Fatal(err)
						}
						states++
						want, err := p.MeasureFull(w, cfg)
						if err != nil {
							t.Fatal(err)
						}
						got, ok := mt.MeasureByTable(ord)
						if !ok {
							t.Fatalf("%s/%s %v: the table did not serve a schema state", spec.Name, w.Name, cfg)
						}
						if math.Float64bits(got.Times.Host) != math.Float64bits(want.Times.Host) ||
							math.Float64bits(got.Times.Device) != math.Float64bits(want.Times.Device) ||
							math.Float64bits(got.Energy.Host) != math.Float64bits(want.Energy.Host) ||
							math.Float64bits(got.Energy.Device) != math.Float64bits(want.Energy.Device) {
							t.Fatalf("%s/%s %v: table %+v, MeasureFull %+v", spec.Name, w.Name, cfg, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d states", states)
}
