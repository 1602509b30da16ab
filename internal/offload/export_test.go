package offload

// MeasureByTable measures ordinal ord through the level table alone; ok
// is false when the table cannot serve it and Measure would fall back to
// MeasureFull. Tests use it to tell a served measurement from a
// fallback.
func (mt *MeasureTable) MeasureByTable(ord, trial int) (Measurement, bool) {
	return mt.fromTable(mt.levelsOf(ord), trial)
}
