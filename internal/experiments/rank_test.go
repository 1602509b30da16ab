package experiments

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"hetopt/internal/stats"
)

// spearman returns the Spearman rank correlation of two series: the
// Pearson correlation of their ranks, robust to monotone nonlinearities.
// Ties receive their average rank.
func spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("series lengths differ (%d vs %d)", len(xs), len(ys))
	}
	return stats.Pearson(ranks(xs), ranks(ys))
}

// ranks assigns average ranks (1-based) with tie handling.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j < len(idx) && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			out[idx[k]] = avg
		}
		i = j
	}
	return out
}

func TestSpearman(t *testing.T) {
	// Monotone but nonlinear relationship: Spearman is 1, Pearson is not.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	s, err := spearman(xs, ys)
	if err != nil || math.Abs(s-1) > 1e-12 {
		t.Fatalf("spearman = %g, %v; want 1", s, err)
	}
	p, _ := stats.Pearson(xs, ys)
	if p >= 1-1e-9 {
		t.Fatalf("pearson = %g should be below 1 on a nonlinear relation", p)
	}
}

func TestSpearmanTies(t *testing.T) {
	// Ties take average ranks; a series tied everywhere has zero variance.
	s, err := spearman([]float64{1, 1, 2, 2}, []float64{3, 3, 4, 4})
	if err != nil || math.Abs(s-1) > 1e-12 {
		t.Fatalf("tied spearman = %g, %v", s, err)
	}
	s, err = spearman([]float64{5, 5, 5}, []float64{1, 2, 3})
	if err != nil || s != 0 {
		t.Fatalf("all-tied spearman = %g, %v", s, err)
	}
}
