package ml

import (
	"math"
	"testing"
)

func benchData(n int) *Dataset {
	return synth(n, 5, 99, 0.03, func(x []float64) float64 {
		return 100/(x[0]+1) + 0.2*x[1] + math.Abs(x[2]-5)
	})
}

func BenchmarkFitTree(b *testing.B) {
	b.ReportAllocs()
	d := benchData(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitTree(d, d.Y, TreeOptions{MaxDepth: 7, MinLeaf: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitBoostedTrees100(b *testing.B) {
	b.ReportAllocs()
	d := benchData(1500)
	opt := BoostOptions{Rounds: 100, LearningRate: 0.1, Tree: TreeOptions{MaxDepth: 6, MinLeaf: 5}, Subsample: 0.9, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitBoostedTrees(d, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBoostedPredict(b *testing.B) {
	b.ReportAllocs()
	d := benchData(1500)
	m, err := FitBoostedTrees(d, BoostOptions{Rounds: 300, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	probe := d.X[42]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(probe)
	}
}

func BenchmarkFitLinear(b *testing.B) {
	b.ReportAllocs()
	d := benchData(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLinear(d, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitPoisson(b *testing.B) {
	b.ReportAllocs()
	d := benchData(1500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitPoisson(d, PoissonOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
