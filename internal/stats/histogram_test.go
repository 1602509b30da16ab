package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(nil); err == nil {
		t.Fatal("want error for empty edges")
	}
	if _, err := NewHistogram([]float64{1, 1}); err == nil {
		t.Fatal("want error for non-increasing edges")
	}
	if _, err := NewHistogram([]float64{2, 1}); err == nil {
		t.Fatal("want error for decreasing edges")
	}
	if _, err := NewHistogram([]float64{1, 2, 3}); err != nil {
		t.Fatalf("valid edges rejected: %v", err)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h, err := NewHistogram([]float64{0.01, 0.02, 0.05})
	if err != nil {
		t.Fatal(err)
	}
	h.AddAll([]float64{0.005, 0.01, 0.015, 0.02, 0.03, 0.05, 0.06})
	// Inclusive upper bounds: 0.005,0.01 -> bucket0; 0.015,0.02 -> bucket1;
	// 0.03,0.05 -> bucket2; 0.06 -> overflow.
	if h.Counts[0] != 2 || h.Counts[1] != 2 || h.Counts[2] != 2 || h.Overflow != 1 {
		t.Fatalf("counts = %v overflow = %d", h.Counts, h.Overflow)
	}
	if h.Total() != 7 {
		t.Fatalf("Total = %d, want 7", h.Total())
	}
}

func TestHistogramIgnoresNaN(t *testing.T) {
	h, _ := NewHistogram([]float64{1})
	h.Add(math.NaN())
	if h.Total() != 0 {
		t.Fatalf("NaN should be ignored, total = %d", h.Total())
	}
}

func TestHistogramFractions(t *testing.T) {
	h, _ := NewHistogram([]float64{1, 2})
	h.AddAll([]float64{0.5, 1.5, 1.7, 3.0})
	fr := h.Fractions()
	if fr[0] != 0.25 || fr[1] != 0.5 {
		t.Fatalf("fractions = %v", fr)
	}
}

func TestHistogramFractionsEmpty(t *testing.T) {
	h, _ := NewHistogram([]float64{1})
	fr := h.Fractions()
	if len(fr) != 1 || fr[0] != 0 {
		t.Fatalf("fractions = %v", fr)
	}
}

func TestPaperEdges(t *testing.T) {
	if _, err := NewHistogram(PaperHostErrorEdges()); err != nil {
		t.Fatalf("host edges invalid: %v", err)
	}
	if _, err := NewHistogram(PaperDeviceErrorEdges()); err != nil {
		t.Fatalf("device edges invalid: %v", err)
	}
	if n := len(PaperHostErrorEdges()); n != 10 {
		t.Fatalf("host edge count = %d, want 10 (paper Fig 7)", n)
	}
	if n := len(PaperDeviceErrorEdges()); n != 14 {
		t.Fatalf("device edge count = %d, want 14 (paper Fig 8)", n)
	}
}

// Property: every finite non-NaN sample lands in exactly one bucket or the
// overflow, so totals always match the number of samples added.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		h, err := NewHistogram([]float64{0.1, 0.5, 1, 5, 100})
		if err != nil {
			return false
		}
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		return h.Total() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
