// Package trace records and renders the trajectory of a simulated
// annealing run: per-iteration candidate/current/best energies,
// temperatures, and acceptance events. It provides the observability
// behind Figure 9-style convergence analysis — *why* a run at a given
// budget lands where it does — and feeds the convergence plots of
// cmd/hetopt users debugging their own tuning problems.
package trace

import (
	"fmt"
	"math"
	"strings"

	"hetopt/internal/strategy"
	"hetopt/internal/tables"
)

// Recorder accumulates annealing steps. Attach via Hook as
// strategy.Options.OnStep.
type Recorder struct {
	steps []strategy.Step
}

// Hook returns an OnStep callback recording into r.
func (r *Recorder) Hook() func(strategy.Step) {
	return func(s strategy.Step) {
		r.steps = append(r.steps, s)
	}
}

// Len returns the number of recorded steps.
func (r *Recorder) Len() int { return len(r.steps) }

// Steps returns the recorded steps (shared slice; callers must not
// modify).
func (r *Recorder) Steps() []strategy.Step { return r.steps }

// Summary aggregates a recorded run.
type Summary struct {
	Iterations      int
	Accepted        int
	AcceptedWorse   int
	AcceptanceRate  float64
	FirstBest       float64
	FinalBest       float64
	BestFoundAtIter int
	// Phases splits the run into quarters and reports the per-quarter
	// acceptance rate — the explore-to-exploit transition of a healthy
	// anneal shows as a falling sequence.
	Phases []float64
}

// Summarize computes the run summary. It fails on an empty recording.
func (r *Recorder) Summarize() (Summary, error) {
	if len(r.steps) == 0 {
		return Summary{}, fmt.Errorf("trace: empty recording")
	}
	s := Summary{
		Iterations: len(r.steps),
		FirstBest:  r.steps[0].Best,
		FinalBest:  r.steps[len(r.steps)-1].Best,
	}
	best := math.Inf(1)
	for i, st := range r.steps {
		if st.Accepted {
			s.Accepted++
		}
		if st.Worse {
			s.AcceptedWorse++
		}
		if st.Best < best {
			best = st.Best
			s.BestFoundAtIter = i
		}
	}
	s.AcceptanceRate = float64(s.Accepted) / float64(s.Iterations)
	quarters := 4
	for q := 0; q < quarters; q++ {
		lo := q * len(r.steps) / quarters
		hi := (q + 1) * len(r.steps) / quarters
		if hi <= lo {
			continue
		}
		acc := 0
		for _, st := range r.steps[lo:hi] {
			if st.Accepted {
				acc++
			}
		}
		s.Phases = append(s.Phases, float64(acc)/float64(hi-lo))
	}
	return s, nil
}

// RenderConvergence plots best-so-far and current energy against
// iteration, plus the summary table.
func (r *Recorder) RenderConvergence(title string) string {
	if len(r.steps) == 0 {
		return "trace: empty recording\n"
	}
	var sb strings.Builder
	xs := make([]float64, len(r.steps))
	best := make([]float64, len(r.steps))
	current := make([]float64, len(r.steps))
	for i, st := range r.steps {
		xs[i] = float64(st.Iter)
		best[i] = st.Best
		current[i] = st.Current
	}
	sb.WriteString(tables.LineChart(title, []tables.Series{
		{Name: "best", X: xs, Y: best},
		{Name: "current", X: xs, Y: current},
	}, 72, 14))
	sum, err := r.Summarize()
	if err != nil {
		return sb.String()
	}
	tb := tables.New("", "metric", "value")
	tb.AddRow("iterations", fmt.Sprint(sum.Iterations))
	tb.AddRow("acceptance rate", tables.Percent(100*sum.AcceptanceRate))
	tb.AddRow("uphill acceptances", fmt.Sprint(sum.AcceptedWorse))
	tb.AddRow("best found at iter", fmt.Sprint(sum.BestFoundAtIter))
	tb.AddRow("best energy", tables.F(sum.FinalBest, 4))
	for q, rate := range sum.Phases {
		tb.AddRow(fmt.Sprintf("acceptance Q%d", q+1), tables.Percent(100*rate))
	}
	sb.WriteString(tb.String())
	return sb.String()
}
