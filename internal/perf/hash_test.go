package perf

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"hetopt/internal/machine"
)

// stdlibMeasurementHash is the reference implementation of the
// measurement key hash, written against hash/fnv exactly as the hot path
// was before the FNV-1a inlining. measurementHash must stay bit-identical
// to it forever: the hash seeds the noise draws, so any divergence
// silently changes every simulated measurement.
func stdlibMeasurementHash(seed uint64, role, workload string, a Assignment) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(seed)
	io.WriteString(h, role)
	h.Write([]byte{0})
	io.WriteString(h, workload)
	h.Write([]byte{0})
	put(uint64(int64(a.SizeMB * 1024)))
	put(uint64(int64(a.Threads)))
	put(uint64(int64(a.Affinity)))
	put(0) // the key's eight trailing zero bytes
	return h.Sum64()
}

func TestMeasurementHashMatchesStdlibFNV(t *testing.T) {
	seeds := []uint64{0, 1, 42, 1<<63 - 1, ^uint64(0)}
	roles := []string{"", "host", "device", "r\x00le", "rôle→", strings.Repeat("h", 300)}
	workloads := []string{"", "dna-human", "matrix-mult\xff", strings.Repeat("w", 65)}
	assignments := []Assignment{
		{},
		{SizeMB: 0.5, Threads: 1, Affinity: machine.AffinityCompact},
		{SizeMB: 3246.25, Threads: 48, Affinity: machine.AffinityScatter},
		{SizeMB: 1e6, Threads: 240, Affinity: machine.AffinityBalanced},
		{SizeMB: -12, Threads: -1, Affinity: machine.AffinityNone},
	}
	n := 0
	for _, seed := range seeds {
		for _, role := range roles {
			for _, w := range workloads {
				for _, a := range assignments {
					got := measurementHash(seed, role, w, a)
					want := stdlibMeasurementHash(seed, role, w, a)
					if got != want {
						t.Fatalf("measurementHash(%d, %q, %q, %+v) = %#x, stdlib fnv = %#x",
							seed, role, w, a, got, want)
					}
					n++
				}
			}
		}
	}
	if n < 500 {
		t.Fatalf("corpus too small: %d cases", n)
	}
}

// TestNoiseDrawZeroAllocs pins the full noise derivation — hash,
// splitmix decorrelation, Box-Muller, clamping and scaling — as
// allocation-free; it runs on every simulated measurement, four times
// per MeasureFull.
func TestNoiseDrawZeroAllocs(t *testing.T) {
	m := NewPaperModel()
	a := Assignment{SizeMB: 1623, Threads: 48, Affinity: machine.AffinityScatter}
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		sink += m.noise("host", "dna-human", a, 0.035)
	})
	if allocs != 0 {
		t.Fatalf("noise allocates %g allocs/op, want 0", allocs)
	}
	_ = sink
}

// TestThroughputLookupZeroAllocs pins the steady-state table-lookup path
// of the analytic model as allocation-free once the per-(workload,
// platform) tables are built.
func TestThroughputLookupZeroAllocs(t *testing.T) {
	m := NewPaperModel()
	w := Traits{Name: "human", Complexity: 1}
	if _, err := m.HostThroughputFor(48, machine.AffinityScatter, w); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DeviceThroughputFor(240, machine.AffinityBalanced, w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := m.HostThroughputFor(48, machine.AffinityScatter, w); err != nil {
			t.Fatal(err)
		}
		if _, err := m.DeviceThroughputFor(240, machine.AffinityBalanced, w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("throughput lookup allocates %g allocs/op, want 0", allocs)
	}
}
