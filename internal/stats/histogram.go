package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram counts samples into buckets delimited by explicit upper edges,
// matching the presentation of the paper's error histograms (Figures 7 and
// 8), which label each bar with the inclusive upper bound of its bucket.
//
// A sample x falls into bucket i when x <= Edges[i] and x > Edges[i-1]
// (x > Edges[len-1] falls into the overflow count).
type Histogram struct {
	// Edges holds strictly increasing inclusive upper bounds.
	Edges []float64
	// Counts holds one count per edge.
	Counts []int
	// Overflow counts samples larger than the last edge.
	Overflow int
}

// NewHistogram creates a histogram with the given strictly increasing
// inclusive upper edges. It returns an error if edges is empty or not
// strictly increasing.
func NewHistogram(edges []float64) (*Histogram, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one edge")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			return nil, fmt.Errorf("stats: histogram edges must be strictly increasing (edge %d: %g <= %g)", i, edges[i], edges[i-1])
		}
	}
	return &Histogram{
		Edges:  append([]float64(nil), edges...),
		Counts: make([]int, len(edges)),
	}, nil
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	i := sort.SearchFloat64s(h.Edges, x)
	// SearchFloat64s returns the first index with Edges[i] >= x, which is
	// exactly the inclusive-upper-bound bucket.
	if i == len(h.Edges) {
		h.Overflow++
		return
	}
	h.Counts[i]++
}

// AddAll records every sample in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Total returns the number of recorded samples, including overflow.
func (h *Histogram) Total() int {
	total := h.Overflow
	for _, c := range h.Counts {
		total += c
	}
	return total
}

// Fractions returns per-bucket fractions of the total (0 when empty).
func (h *Histogram) Fractions() []float64 {
	out := make([]float64, len(h.Counts))
	total := h.Total()
	if total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}

// PaperHostErrorEdges are the bucket upper bounds of the paper's Figure 7
// (host absolute prediction error, seconds).
func PaperHostErrorEdges() []float64 {
	return []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.08, 0.1, 0.15, 0.2}
}

// PaperDeviceErrorEdges are the bucket upper bounds of the paper's Figure 8
// (device absolute prediction error, seconds). The axis as printed in the
// arXiv extraction is partially garbled; the edges are reproduced here in
// strictly increasing order.
func PaperDeviceErrorEdges() []float64 {
	return []float64{0.015, 0.025, 0.04, 0.05, 0.08, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1, 1.5, 2.5}
}
