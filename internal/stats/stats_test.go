package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %g, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	minV, err := Min(xs)
	if err != nil || minV != -1 {
		t.Fatalf("Min = %g, %v; want -1, nil", minV, err)
	}
	maxV, err := Max(xs)
	if err != nil || maxV != 7 {
		t.Fatalf("Max = %g, %v; want 7, nil", maxV, err)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	if _, err := Min(nil); err != ErrEmpty {
		t.Fatalf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); err != ErrEmpty {
		t.Fatalf("Max(nil) err = %v, want ErrEmpty", err)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Variance = %g, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %g, want 2", got)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if got := Variance([]float64{5}); got != 0 {
		t.Fatalf("Variance single = %g, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {110, 5}, {10, 1.4},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatalf("Percentile(%g) error: %v", c.p, err)
		}
		if !almostEqual(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

func TestPercentileSingle(t *testing.T) {
	got, err := Percentile([]float64{42}, 90)
	if err != nil || got != 42 {
		t.Fatalf("Percentile single = %g, %v", got, err)
	}
}

func TestMedianOrderIndependent(t *testing.T) {
	a, _ := Median([]float64{5, 1, 3})
	b, _ := Median([]float64{3, 5, 1})
	if a != b || a != 3 {
		t.Fatalf("Median = %g/%g, want 3", a, b)
	}
}

func TestNormalizeRangePaperStyle(t *testing.T) {
	// Figure 2 normalizes execution times into [1, 10].
	xs := []float64{0.5, 1.0, 2.0}
	out := NormalizeRange(xs, 1, 10)
	if !almostEqual(out[0], 1, 1e-12) || !almostEqual(out[2], 10, 1e-12) {
		t.Fatalf("endpoints = %v, want 1 and 10", out)
	}
	if !almostEqual(out[1], 4, 1e-12) { // (1-0.5)/1.5 * 9 + 1
		t.Fatalf("mid = %g, want 4", out[1])
	}
}

func TestNormalizeRangeConstant(t *testing.T) {
	out := NormalizeRange([]float64{2, 2, 2}, 1, 10)
	for _, v := range out {
		if v != 1 {
			t.Fatalf("constant input should map to lo: %v", out)
		}
	}
}

func TestNormalizeRangeEmpty(t *testing.T) {
	if out := NormalizeRange(nil, 1, 10); len(out) != 0 {
		t.Fatalf("want empty output, got %v", out)
	}
}

func TestNormalizeRangePreservesInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = NormalizeRange(xs, 0, 1)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input modified: %v", xs)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("unexpected summary %+v", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
}

// Property: normalization output always lies within [lo, hi] and is
// monotonic with respect to the input ordering.
func TestNormalizeRangeProperties(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				clean = append(clean, x)
			}
		}
		out := NormalizeRange(clean, 1, 10)
		for _, v := range out {
			if v < 1-1e-9 || v > 10+1e-9 {
				return false
			}
		}
		for i := range clean {
			for j := range clean {
				if clean[i] < clean[j] && out[i] > out[j]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 101)
		p2 = math.Mod(math.Abs(p2), 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		v1, err1 := Percentile(xs, p1)
		v2, err2 := Percentile(xs, p2)
		if err1 != nil || err2 != nil {
			return false
		}
		minV, _ := Min(xs)
		maxV, _ := Max(xs)
		return v1 <= v2+1e-9 && v1 >= minV-1e-9 && v2 <= maxV+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPearson(t *testing.T) {
	r, err := Pearson([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Fatalf("perfect positive correlation = %g, %v", r, err)
	}
	r, err = Pearson([]float64{1, 2, 3}, []float64{3, 2, 1})
	if err != nil || !almostEqual(r, -1, 1e-12) {
		t.Fatalf("perfect negative correlation = %g, %v", r, err)
	}
	r, err = Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Fatalf("constant series correlation = %g, %v", r, err)
	}
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err != ErrEmpty {
		t.Fatal("single sample should fail with ErrEmpty")
	}
}

// Property: correlations are symmetric and bounded by 1 in magnitude.
func TestCorrelationProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		xs, ys := raw[:n], raw[n:2*n]
		for _, v := range raw[:2*n] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a, err1 := Pearson(xs, ys)
		b, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return !(math.Abs(a-b) > 1e-9 || math.Abs(a) > 1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
