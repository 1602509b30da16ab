package ml

import (
	"fmt"
	"math"
)

// AbsoluteError implements the paper's Equation 5:
// |T_measured - T_predicted|.
func AbsoluteError(measured, predicted float64) float64 {
	return math.Abs(measured - predicted)
}

// PercentError implements the paper's Equation 6:
// 100 * absolute error / T_measured.
func PercentError(measured, predicted float64) float64 {
	if measured == 0 {
		return math.Inf(1)
	}
	return 100 * AbsoluteError(measured, predicted) / math.Abs(measured)
}

// Evaluation aggregates prediction accuracy over a test set.
type Evaluation struct {
	// N is the number of evaluated samples.
	N int
	// MeanAbsoluteError and MeanPercentError average Equations 5 and 6.
	MeanAbsoluteError, MeanPercentError float64
	// RMSE is the root mean squared error.
	RMSE float64
	// R2 is the coefficient of determination.
	R2 float64
	// AbsErrors holds the per-sample absolute errors (histogram input).
	AbsErrors []float64
}

// Evaluate runs the regressor over the dataset and aggregates accuracy.
func Evaluate(m Regressor, d *Dataset) (Evaluation, error) {
	if err := d.Validate(); err != nil {
		return Evaluation{}, err
	}
	preds := make([]float64, d.Len())
	for i, x := range d.X {
		preds[i] = m.Predict(x)
	}
	return EvaluatePredictions(d, preds)
}

// EvaluatePredictions aggregates the accuracy of predictions already
// made for the dataset's samples (preds[i] for row i), so a caller that
// also keeps the predictions runs the model only once.
func EvaluatePredictions(d *Dataset, preds []float64) (Evaluation, error) {
	if err := d.Validate(); err != nil {
		return Evaluation{}, err
	}
	if len(preds) != d.Len() {
		return Evaluation{}, fmt.Errorf("ml: %d predictions for %d samples", len(preds), d.Len())
	}
	ev := Evaluation{N: d.Len(), AbsErrors: make([]float64, 0, d.Len())}
	meanY := 0.0
	for _, y := range d.Y {
		meanY += y
	}
	meanY /= float64(d.Len())

	var sse, sst float64
	for i, pred := range preds {
		if math.IsNaN(pred) || math.IsInf(pred, 0) {
			return Evaluation{}, fmt.Errorf("ml: regressor produced non-finite prediction for sample %d", i)
		}
		abs := AbsoluteError(d.Y[i], pred)
		ev.AbsErrors = append(ev.AbsErrors, abs)
		ev.MeanAbsoluteError += abs
		ev.MeanPercentError += PercentError(d.Y[i], pred)
		sse += (d.Y[i] - pred) * (d.Y[i] - pred)
		sst += (d.Y[i] - meanY) * (d.Y[i] - meanY)
	}
	n := float64(d.Len())
	ev.MeanAbsoluteError /= n
	ev.MeanPercentError /= n
	ev.RMSE = math.Sqrt(sse / n)
	if sst > 0 {
		ev.R2 = 1 - sse/sst
	}
	return ev, nil
}
