package dynsched

import (
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
)

func BenchmarkSimulate(b *testing.B) {
	b.ReportAllocs()
	s := paperScheduler()
	w := offload.GenomeWorkload(dna.Human)
	cfg := fullConfig(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Simulate(w, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
