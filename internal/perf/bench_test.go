package perf

import (
	"testing"

	"hetopt/internal/machine"
)

func BenchmarkHostTime(b *testing.B) {
	b.ReportAllocs()
	m := NewPaperModel()
	a := Assignment{SizeMB: 1948, Threads: 48, Affinity: machine.AffinityScatter}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.HostTime(a, human); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeviceTime(b *testing.B) {
	b.ReportAllocs()
	m := NewPaperModel()
	a := Assignment{SizeMB: 1298, Threads: 240, Affinity: machine.AffinityBalanced}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.DeviceTime(a, human); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThroughputPlacement(b *testing.B) {
	b.ReportAllocs()
	m := NewPaperModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.HostThroughputFor(36, machine.AffinityCompact, Traits{}); err != nil {
			b.Fatal(err)
		}
	}
}
