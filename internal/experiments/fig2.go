package experiments

import (
	"fmt"
	"strings"

	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/space"
	"hetopt/internal/stats"
	"hetopt/internal/tables"
)

// Fig2Scenario describes one motivational sweep of Figure 2.
type Fig2Scenario struct {
	// Label names the subfigure, e.g. "fig2a".
	Label string
	// SizeMB and HostThreads are the sweep's fixed parameters.
	SizeMB      float64
	HostThreads int
}

// Fig2Series is the result of one sweep: execution time versus work
// distribution ratio, both raw and normalized to 1-10 as in the paper.
type Fig2Series struct {
	Scenario Fig2Scenario
	// Ratios labels each point ("CPU only", "90/10", ..., "Phi only").
	Ratios []string
	// HostFractions holds the corresponding host percentages.
	HostFractions []float64
	// Raw and Normalized are the execution times.
	Raw, Normalized []float64
	// BestIndex is the position of the fastest ratio.
	BestIndex int
}

// Fig2Scenarios returns the paper's three motivational scenarios:
// (a) 190 MB input with 48 CPU threads, (b) 3250 MB with 48 threads,
// (c) 3250 MB with 4 threads.
func Fig2Scenarios() []Fig2Scenario {
	return []Fig2Scenario{
		{Label: "fig2a", SizeMB: 190, HostThreads: 48},
		{Label: "fig2b", SizeMB: 3250, HostThreads: 48},
		{Label: "fig2c", SizeMB: 3250, HostThreads: 4},
	}
}

// Fig2 reproduces the motivational experiment (Section II-C): the
// execution time of the DNA analysis workload across the eleven
// distribution ratios CPU-only, 90/10, ..., 10/90, Phi-only, for each
// scenario.
func (s *Suite) Fig2() ([]Fig2Series, error) {
	var out []Fig2Series
	for _, scen := range Fig2Scenarios() {
		series := Fig2Series{Scenario: scen}
		w := offload.Workload{Name: "human", SizeMB: scen.SizeMB, Complexity: 1}
		for f := 100; f >= 0; f -= 10 {
			label := fmt.Sprintf("%d/%d", f, 100-f)
			if f == 100 {
				label = "CPU only"
			} else if f == 0 {
				label = "Phi only"
			}
			cfg := space.Config{
				HostThreads:    scen.HostThreads,
				HostAffinity:   machine.AffinityScatter,
				DeviceThreads:  240,
				DeviceAffinity: machine.AffinityBalanced,
				HostFraction:   float64(f),
			}
			t, err := s.Platform.Measure(w, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: fig2 %s ratio %s: %w", scen.Label, label, err)
			}
			series.Ratios = append(series.Ratios, label)
			series.HostFractions = append(series.HostFractions, float64(f))
			series.Raw = append(series.Raw, t.E())
		}
		series.Normalized = stats.NormalizeRange(series.Raw, 1, 10)
		series.BestIndex = 0
		for i, v := range series.Raw {
			if v < series.Raw[series.BestIndex] {
				series.BestIndex = i
			}
		}
		out = append(out, series)
	}
	return out, nil
}

// RenderFig2 formats the sweeps as tables plus a bar chart per scenario.
func RenderFig2(series []Fig2Series) string {
	var sb strings.Builder
	for _, s := range series {
		title := fmt.Sprintf("Figure 2 (%s): size=%.0f MB, host threads=%d — execution time by work distribution (host/device)",
			s.Scenario.Label, s.Scenario.SizeMB, s.Scenario.HostThreads)
		tb := tables.New(title, "ratio", "time [s]", "normalized (1-10)", "")
		for i := range s.Ratios {
			mark := ""
			if i == s.BestIndex {
				mark = "<- best"
			}
			tb.AddRow(s.Ratios[i], tables.F(s.Raw[i], 3), tables.F(s.Normalized[i], 2), mark)
		}
		sb.WriteString(tb.String())
		sb.WriteString(tables.BarChart("", s.Ratios, s.Normalized, 40))
		sb.WriteByte('\n')
	}
	return sb.String()
}
