package multi

import (
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
)

func BenchmarkMeasureTwoPhis(b *testing.B) {
	b.ReportAllocs()
	p, err := PaperProblem(2, offload.GenomeWorkload(dna.Human))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Host: Assignment{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: 40},
		Devices: []Assignment{
			{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 30},
			{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 30},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Platform.Measure(p.Workload, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTuneTwoPhis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := PaperProblem(2, offload.GenomeWorkload(dna.Human))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Tune(p, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
