package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending sample; NaN for an empty one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailRank names the highest tail percentile a sample of n supports: one
// with at least ten samples beyond it. p99 therefore needs 1,000 samples,
// p90 needs 100; smaller samples report only their median.
func tailRank(n int) (name string, q float64) {
	switch {
	case n >= 1000:
		return "p99", 0.99
	case n >= 100:
		return "p90", 0.90
	default:
		return "p50", 0.50
	}
}

// latencySummary is a timing sample reduced to its median and its
// highest supported tail percentile.
type latencySummary struct {
	N        int
	P50      float64
	TailName string
	Tail     float64
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) latencySummary {
	sort.Float64s(xs)
	name, q := tailRank(len(xs))
	return latencySummary{N: len(xs), P50: percentile(xs, 0.5), TailName: name, Tail: percentile(xs, q)}
}

// median of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads printed here match an independent check. xs is
// sorted in place; it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (xs[j-1]*float64(4-delta) + xs[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance of xs as a share of its
// median.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// steadyRates reduces a timed phase to its throughput and CPU per answer
// robustly: medians over the phase's windows. Phases too short for
// three windows fall back to the pooled values.
func steadyRates(ph *phase) (rps, cpuMSPerReq float64) {
	rps = float64(ph.attempts) / ph.elapsed.Seconds()
	cpuMSPerReq = float64(ph.cpu) / 1e6 / float64(max(ph.attempts, 1))
	if len(ph.marks) < 3 {
		return rps, cpuMSPerReq
	}
	var rates, cpus []float64
	prev := mark{}
	for _, m := range ph.marks {
		if n := m.answered - prev.answered; n > 0 {
			rates = append(rates, float64(n)/(m.at-prev.at).Seconds())
			cpus = append(cpus, float64(m.cpu-prev.cpu)/1e6/float64(n))
		}
		prev = m
	}
	return median(rates), median(cpus)
}

// steadyLatency reduces one class's round trips, in stream order, to
// its median and its highest supported tail percentile. With enough
// answers for three or more consecutive slices of 1,000 (at most ten
// slices), each figure is the median of the slices' figures, so a burst
// of outside load moves one slice, not the run; otherwise it is pooled.
func steadyLatency(ms []float64) latencySummary {
	slices := min(10, len(ms)/1000)
	if slices < 3 {
		return summarize(append([]float64(nil), ms...))
	}
	var p50s, tails []float64
	for k := 0; k < slices; k++ {
		s := summarize(append([]float64(nil), ms[k*len(ms)/slices:(k+1)*len(ms)/slices]...))
		p50s, tails = append(p50s, s.P50), append(tails, s.Tail)
	}
	return latencySummary{N: len(ms), P50: median(p50s), TailName: "p99", Tail: median(tails)}
}

// geomean is the geometric mean of xs: a k-fold change of one of n
// values moves it k^(1/n)-fold, whichever value it is.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
