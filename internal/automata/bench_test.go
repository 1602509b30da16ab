package automata

import (
	"testing"

	"hetopt/internal/dna"
)

func benchText(n int) []byte {
	return dna.NewGenerator(dna.Human, 1).Generate(n)
}

func BenchmarkCompileMotifs(b *testing.B) {
	b.ReportAllocs()
	set := dna.DefaultMotifs()
	for i := 0; i < b.N; i++ {
		if _, err := CompileMotifs(set); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompilePattern(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CompilePattern("GCC(A|G)CCATGG"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeterminizeMinimize(b *testing.B) {
	b.ReportAllocs()
	nfa, err := CompileNFA("GCCRCC(A|T)TGG", true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		d := Determinize(nfa)
		Minimize(d)
	}
}

func BenchmarkCountMatches(b *testing.B) {
	b.ReportAllocs()
	d, err := CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		b.Fatal(err)
	}
	text := benchText(1 << 20)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.CountMatches(text)
	}
}

func BenchmarkScanWithMatches(b *testing.B) {
	b.ReportAllocs()
	d, err := CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		b.Fatal(err)
	}
	text := benchText(1 << 20)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	var events int
	for i := 0; i < b.N; i++ {
		events = 0
		d.Scan(d.Start, 0, text, func(Match) bool { events++; return true })
	}
	b.ReportMetric(float64(events), "matches")
}

func BenchmarkNaiveMotifCount(b *testing.B) {
	b.ReportAllocs()
	set := dna.DefaultMotifs()
	text := benchText(1 << 16) // the oracle is quadratic-ish; keep small
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NaiveMotifCount(set, text); err != nil {
			b.Fatal(err)
		}
	}
}
