package experiments

import (
	"hash/fnv"
	"strings"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/stats"
)

func TestRenderFig1(t *testing.T) {
	s := testSuite(t)
	out := s.RenderFig1()
	for _, want := range []string{"Figure 1", "PCIe", "Xeon E5", "Xeon Phi", "reserved for uOS", "512-bit SIMD"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1 missing %q", want)
		}
	}
}

func TestRenderFig3And4(t *testing.T) {
	f3 := RenderFig3()
	for _, want := range []string{"Figure 3", "coolingRate", "exp((E-E')/T)", "max(T_host, T_device)"} {
		if !strings.Contains(f3, want) {
			t.Errorf("fig3 missing %q", want)
		}
	}
	f4 := RenderFig4()
	for _, want := range []string{"Figure 4", "normalize", "boosted decision tree", "7200 experiments"} {
		if !strings.Contains(f4, want) {
			t.Errorf("fig4 missing %q", want)
		}
	}
}

func TestRenderSATrace(t *testing.T) {
	s := testSuite(t)
	out, err := s.RenderSATrace(offload.GenomeWorkload(dna.Cat), 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"instrumented SAML trace", "acceptance rate", "best found at iter"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q", want)
		}
	}
}

// TestRenderSATraceGolden pins the instrumented trace byte-for-byte: an
// FNV-64a digest of the rendered chart and summary, captured before the
// annealer moved onto strategy.Problem. It covers the trace hook's step
// order and every recorded energy, not just the final best.
func TestRenderSATraceGolden(t *testing.T) {
	s := testSuite(t)
	out, err := s.RenderSATrace(offload.GenomeWorkload(dna.Cat), 300)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write([]byte(out))
	if got, want := h.Sum64(), uint64(0xd71edbd3d631465f); got != want {
		t.Errorf("trace digest %#x, want %#x:\n%s", got, want, out)
	}
}

func TestPredictionCurvesRankCorrelation(t *testing.T) {
	// Figures 5/6 claim measured and predicted "match well"; quantify via
	// rank correlation on every curve.
	s := testSuite(t)
	for _, build := range []func() (PredictionCurves, error){s.Fig5, s.Fig6} {
		pc, err := build()
		if err != nil {
			t.Fatal(err)
		}
		for n, pts := range pc.Curves {
			measured := make([]float64, len(pts))
			predicted := make([]float64, len(pts))
			for i, p := range pts {
				measured[i] = p.Measured
				predicted[i] = p.Predicted
			}
			rho, err := stats.Spearman(measured, predicted)
			if err != nil {
				t.Fatal(err)
			}
			if rho < 0.97 {
				t.Errorf("%s %dT: rank correlation %.3f below 0.97", pc.Side, n, rho)
			}
		}
	}
}
