package offload

import (
	"fmt"

	"hetopt/internal/perf"
	"hetopt/internal/space"
)

// Measure measures the schema configuration with ordinal ord through
// the table: MeasureFull(w, schema config ord, 0), bit for bit. Tests
// use it to reach every ordinal.
func (mt *MeasureTable) Measure(ord int) (Measurement, error) {
	if ord < 0 || ord >= mt.schema.Size() {
		return Measurement{}, fmt.Errorf("offload: configuration ordinal %d outside [0,%d)", ord, mt.schema.Size())
	}
	return mt.MeasureLevels(mt.levelsOf(ord), nil)
}

// levelsOf decodes an in-range ordinal into its schema level indices.
func (mt *MeasureTable) levelsOf(ord int) (lv space.Levels) {
	params := mt.schema.Space().Params
	for i := len(lv) - 1; i >= 0; i-- {
		n := params[i].Levels()
		lv[i] = ord % n
		ord /= n
	}
	return lv
}

// MeasureByTable measures ordinal ord through the level table alone; ok
// is false when the table cannot serve it and Measure would fall back to
// MeasureFull. Tests use it to tell a served measurement from a
// fallback.
func (mt *MeasureTable) MeasureByTable(ord int) (Measurement, bool) {
	return mt.fromTable(mt.levelsOf(ord), nil)
}

// MeasureLevelsByTable is MeasureLevels through the level table alone,
// drawing noise through d; ok is false when the table cannot serve lv.
func (mt *MeasureTable) MeasureLevelsByTable(lv space.Levels, d *perf.Draws) (Measurement, bool) {
	return mt.fromTable(lv, d)
}
