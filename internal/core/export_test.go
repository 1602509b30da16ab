package core

import (
	"testing"

	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// CheckRooflineChildBounds exposes checkChildBounds to the external
// test package, which can import the scenario catalog: it reports
// false when the schema and objective admit no roofline bound.
func CheckRooflineChildBounds(t *testing.T, schema *space.Schema, platform *offload.Platform, w offload.Workload, obj Objective) bool {
	b := newRooflineBounder(schema, platform, w, obj)
	if b == nil {
		return false
	}
	checkChildBounds(t, b, obj, schema)
	return true
}

// CheckRooflineAdmissible exposes checkAdmissible, the brute-force
// admissibility walk, to the external test package.
func CheckRooflineAdmissible(t *testing.T, schema *space.Schema, platform *offload.Platform, w offload.Workload) {
	checkAdmissible(t, schema, platform, w)
}

// EvaluateState measures a search state through ev's state path when
// ev is a shared measurement view, the path a search problem over the
// view's schema takes.
func EvaluateState(ev Evaluator, state []int) (offload.Measurement, error) {
	return ev.(*sharedView).evaluateState(state)
}

// PredictState prices a search state the way a search over schema and
// pred does: through pred's level table of schema, or the decode path
// when the table cannot price it.
func PredictState(pred *Predictor, schema *space.Schema, state []int) (offload.Measurement, error) {
	return newSearchProblem(schema, pred, TimeObjective{}, space.StepMove).measure(state)
}
