package experiments

import (
	"fmt"
	"sort"
	"strings"

	"hetopt/internal/core"
	"hetopt/internal/machine"
	"hetopt/internal/ml"
	"hetopt/internal/space"
	"hetopt/internal/stats"
	"hetopt/internal/tables"
)

// PredictionPoint pairs a measured and predicted execution time at one
// input size.
type PredictionPoint struct {
	SizeMB              float64
	Measured, Predicted float64
}

// PredictionCurves is the result of Figure 5 or Figure 6: measured vs
// predicted execution time per thread count, across the genomes' size
// grid, at a fixed affinity.
type PredictionCurves struct {
	// Side is "host" or "device"; Affinity the fixed pinning strategy.
	Side     string
	Affinity machine.Affinity
	// Curves maps thread count to size-ordered points.
	Curves map[int][]PredictionPoint
	// ThreadCounts lists the plotted thread counts in order.
	ThreadCounts []int
}

// Fig5 reproduces the host prediction-accuracy figure: measured and
// predicted times for 6, 12, 24 and 48 threads under scatter affinity
// across all genome-size fractions.
func (s *Suite) Fig5() (PredictionCurves, error) {
	return s.predictionCurves("host", machine.AffinityScatter, []int{6, 12, 24, 48})
}

// Fig6 reproduces the device prediction-accuracy figure: 30, 60, 120 and
// 240 threads under balanced affinity.
func (s *Suite) Fig6() (PredictionCurves, error) {
	return s.predictionCurves("device", machine.AffinityBalanced, []int{30, 60, 120, 240})
}

func (s *Suite) predictionCurves(side string, aff machine.Affinity, threadCounts []int) (PredictionCurves, error) {
	models, err := s.Models()
	if err != nil {
		return PredictionCurves{}, err
	}
	out := PredictionCurves{Side: side, Affinity: aff, Curves: map[int][]PredictionPoint{}, ThreadCounts: threadCounts}
	for _, n := range threadCounts {
		var points []PredictionPoint
		for _, w := range s.Plan.Workloads {
			for _, f := range s.Plan.Fractions {
				sizeMB := w.SizeMB * f / 100
				var measured, predicted float64
				if side == "host" {
					t, err := s.Platform.Measure(w.Scaled(sizeMB), hostOnlyConfig(n, aff))
					if err != nil {
						return PredictionCurves{}, err
					}
					measured = t.Host
					predicted, err = models.PredictHost(n, aff, sizeMB)
					if err != nil {
						return PredictionCurves{}, err
					}
				} else {
					t, err := s.Platform.Measure(w.Scaled(sizeMB), deviceOnlyConfig(n, aff))
					if err != nil {
						return PredictionCurves{}, err
					}
					measured = t.Device
					predicted, err = models.PredictDevice(n, aff, sizeMB)
					if err != nil {
						return PredictionCurves{}, err
					}
				}
				points = append(points, PredictionPoint{SizeMB: sizeMB, Measured: measured, Predicted: predicted})
			}
		}
		sort.Slice(points, func(i, j int) bool { return points[i].SizeMB < points[j].SizeMB })
		out.Curves[n] = points
	}
	return out, nil
}

func hostOnlyConfig(threads int, aff machine.Affinity) space.Config {
	return space.Config{
		HostThreads: threads, HostAffinity: aff,
		DeviceThreads: 2, DeviceAffinity: machine.AffinityBalanced,
		HostFraction: 100,
	}
}

func deviceOnlyConfig(threads int, aff machine.Affinity) space.Config {
	return space.Config{
		HostThreads: 2, HostAffinity: machine.AffinityScatter,
		DeviceThreads: threads, DeviceAffinity: aff,
		HostFraction: 0,
	}
}

// RenderPredictionCurves plots measured vs predicted series per thread
// count and summarizes their agreement.
func RenderPredictionCurves(pc PredictionCurves, figure string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %s prediction accuracy, affinity %s (measured vs predicted)\n",
		figure, pc.Side, pc.Affinity)
	var series []tables.Series
	for _, n := range pc.ThreadCounts {
		pts := pc.Curves[n]
		mx := make([]float64, len(pts))
		my := make([]float64, len(pts))
		py := make([]float64, len(pts))
		for i, p := range pts {
			mx[i] = p.SizeMB
			my[i] = p.Measured
			py[i] = p.Predicted
		}
		series = append(series,
			tables.Series{Name: fmt.Sprintf("%dT measured", n), X: mx, Y: my},
			tables.Series{Name: fmt.Sprintf("%dT predicted", n), X: mx, Y: py},
		)
	}
	sb.WriteString(tables.LineChart("", series, 76, 20))
	tb := tables.New("per-thread-count agreement", "threads", "mean abs err [s]", "mean pct err")
	for _, n := range pc.ThreadCounts {
		pts := pc.Curves[n]
		var abs, pct float64
		for _, p := range pts {
			abs += ml.AbsoluteError(p.Measured, p.Predicted)
			pct += ml.PercentError(p.Measured, p.Predicted)
		}
		abs /= float64(len(pts))
		pct /= float64(len(pts))
		tb.AddRow(fmt.Sprint(n), tables.F(abs, 4), tables.Percent(pct))
	}
	sb.WriteString(tb.String())
	return sb.String()
}

// ErrorHistogram is the result of Figure 7 or 8: the distribution of
// absolute prediction errors over the held-out test half.
type ErrorHistogram struct {
	Side string
	Hist *stats.Histogram
}

// Fig7 builds the host absolute-error histogram with the paper's bucket
// edges.
func (s *Suite) Fig7() (ErrorHistogram, error) {
	models, err := s.Models()
	if err != nil {
		return ErrorHistogram{}, err
	}
	h, err := stats.NewHistogram(stats.PaperHostErrorEdges())
	if err != nil {
		return ErrorHistogram{}, err
	}
	h.AddAll(models.HostReport.Eval.AbsErrors)
	return ErrorHistogram{Side: "host", Hist: h}, nil
}

// Fig8 builds the device absolute-error histogram.
func (s *Suite) Fig8() (ErrorHistogram, error) {
	models, err := s.Models()
	if err != nil {
		return ErrorHistogram{}, err
	}
	h, err := stats.NewHistogram(stats.PaperDeviceErrorEdges())
	if err != nil {
		return ErrorHistogram{}, err
	}
	h.AddAll(models.DeviceReport.Eval.AbsErrors)
	return ErrorHistogram{Side: "device", Hist: h}, nil
}

// RenderErrorHistogram draws the histogram as labeled bars.
func RenderErrorHistogram(eh ErrorHistogram, figure string) string {
	labels := make([]string, len(eh.Hist.Edges))
	values := make([]float64, len(eh.Hist.Counts))
	for i, e := range eh.Hist.Edges {
		labels[i] = fmt.Sprintf("<=%g", e)
		values[i] = float64(eh.Hist.Counts[i])
	}
	title := fmt.Sprintf("%s: %s absolute prediction error histogram (%d samples, %d overflow)",
		figure, eh.Side, eh.Hist.Total(), eh.Hist.Overflow)
	return tables.BarChart(title, labels, values, 50)
}

// AccuracyRow is one row of Table IV or V: prediction accuracy for one
// thread count.
type AccuracyRow struct {
	Threads  int
	Absolute float64
	Percent  float64
}

// AccuracyTable is the result of Table IV (host) or Table V (device).
type AccuracyTable struct {
	Side        string
	Rows        []AccuracyRow
	AvgAbsolute float64
	AvgPercent  float64
}

// Table4 reproduces the host prediction-accuracy table: absolute and
// percent error per thread count over the held-out half.
func (s *Suite) Table4() (AccuracyTable, error) {
	models, err := s.Models()
	if err != nil {
		return AccuracyTable{}, err
	}
	return accuracyByThreads("host", models.HostReport, s.Plan.HostThreads)
}

// Table5 reproduces the device prediction-accuracy table.
func (s *Suite) Table5() (AccuracyTable, error) {
	models, err := s.Models()
	if err != nil {
		return AccuracyTable{}, err
	}
	return accuracyByThreads("device", models.DeviceReport, s.Plan.DeviceThreads)
}

func accuracyByThreads(side string, report core.SideReport, threadCounts []int) (AccuracyTable, error) {
	threadIdx := -1
	for i, name := range report.Test.FeatureNames {
		if name == "threads" {
			threadIdx = i
			break
		}
	}
	if threadIdx < 0 {
		return AccuracyTable{}, fmt.Errorf("experiments: test set lacks a threads feature")
	}
	type agg struct {
		absSum, pctSum float64
		n              int
	}
	byThreads := map[int]*agg{}
	for i, row := range report.Test.X {
		n := int(row[threadIdx])
		a := byThreads[n]
		if a == nil {
			a = &agg{}
			byThreads[n] = a
		}
		measured := report.Test.Y[i]
		predicted := report.Predictions[i]
		a.absSum += ml.AbsoluteError(measured, predicted)
		a.pctSum += ml.PercentError(measured, predicted)
		a.n++
	}
	out := AccuracyTable{Side: side}
	var absTotal, pctTotal float64
	for _, n := range threadCounts {
		a := byThreads[n]
		if a == nil || a.n == 0 {
			return AccuracyTable{}, fmt.Errorf("experiments: no test samples for %d threads", n)
		}
		row := AccuracyRow{Threads: n, Absolute: a.absSum / float64(a.n), Percent: a.pctSum / float64(a.n)}
		out.Rows = append(out.Rows, row)
		absTotal += row.Absolute
		pctTotal += row.Percent
	}
	out.AvgAbsolute = absTotal / float64(len(out.Rows))
	out.AvgPercent = pctTotal / float64(len(out.Rows))
	return out, nil
}

// RenderAccuracyTable formats Table IV/V in the paper's layout.
func RenderAccuracyTable(at AccuracyTable, name string) string {
	tb := tables.New(fmt.Sprintf("%s: %s prediction accuracy by thread count", name, at.Side),
		"threads", "absolute [s]", "percent [%]")
	for _, r := range at.Rows {
		tb.AddRow(fmt.Sprint(r.Threads), tables.F(r.Absolute, 3), tables.F(r.Percent, 3))
	}
	tb.AddRow("avg", tables.F(at.AvgAbsolute, 3), tables.F(at.AvgPercent, 3))
	return tb.String()
}
