package dynsched

import (
	"math"
	"testing"
	"testing/quick"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
)

// paperScheduler simulates on the paper platform's model.
func paperScheduler() *Scheduler { return &Scheduler{Model: perf.NewPaperModel()} }

func fullConfig(chunkMB float64) Config {
	return Config{
		HostThreads: 48, HostAffinity: machine.AffinityScatter,
		DeviceThreads: 240, DeviceAffinity: machine.AffinityBalanced,
		ChunkMB: chunkMB,
	}
}

func TestSimulateBasics(t *testing.T) {
	s := paperScheduler()
	w := offload.GenomeWorkload(dna.Human)
	res, err := s.Simulate(w, fullConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != int(math.Ceil(w.SizeMB/64)) {
		t.Fatalf("chunks = %d", res.Chunks)
	}
	if res.HostChunks+res.DeviceChunks != res.Chunks {
		t.Fatal("chunks lost")
	}
	if res.Makespan <= 0 {
		t.Fatal("non-positive makespan")
	}
	// Both sides should participate on a large input.
	if res.HostChunks == 0 || res.DeviceChunks == 0 {
		t.Fatalf("one side idle: host=%d dev=%d", res.HostChunks, res.DeviceChunks)
	}
}

func TestSimulateValidation(t *testing.T) {
	s := paperScheduler()
	w := offload.GenomeWorkload(dna.Human)
	if _, err := s.Simulate(w, fullConfig(0)); err == nil {
		t.Error("zero chunk should fail")
	}
	if _, err := s.Simulate(offload.Workload{}, fullConfig(64)); err == nil {
		t.Error("invalid workload should fail")
	}
	cfg := fullConfig(64)
	cfg.HostAffinity = machine.AffinityBalanced
	if _, err := s.Simulate(w, cfg); err == nil {
		t.Error("invalid affinity should fail")
	}
}

func TestTinyChunksPayOverhead(t *testing.T) {
	s := paperScheduler()
	w := offload.GenomeWorkload(dna.Human)
	small, err := s.Simulate(w, fullConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	medium, err := s.Simulate(w, fullConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if small.Makespan <= medium.Makespan {
		t.Fatalf("1 MB chunks (%.3fs) should lose to 64 MB chunks (%.3fs): per-chunk overhead", small.Makespan, medium.Makespan)
	}
}

func TestHugeChunksLoadImbalance(t *testing.T) {
	s := paperScheduler()
	w := offload.GenomeWorkload(dna.Human)
	// Chunk = whole input: one side does everything.
	huge, err := s.Simulate(w, fullConfig(w.SizeMB))
	if err != nil {
		t.Fatal(err)
	}
	if huge.HostChunks != 0 && huge.DeviceChunks != 0 {
		t.Fatal("single chunk cannot be split")
	}
	medium, err := s.Simulate(w, fullConfig(64))
	if err != nil {
		t.Fatal(err)
	}
	if huge.Makespan <= medium.Makespan {
		t.Fatalf("whole-input chunk (%.3fs) should lose to 64 MB chunks (%.3fs)", huge.Makespan, medium.Makespan)
	}
}

func TestDynamicTracksStaticOptimum(t *testing.T) {
	// With a sensible chunk size, dynamic self-scheduling must land in
	// the same ballpark as the noiseless static optimum (it load-balances
	// by construction) and must beat host-only execution.
	cal := perf.DefaultCalibration()
	cal.NoiseStdHost, cal.NoiseStdDevice = 0, 0
	s := &Scheduler{Model: perf.NewModel(machine.XeonE5Host(), machine.XeonPhi7120P(), cal)}
	w := offload.GenomeWorkload(dna.Human)
	best := Result{Makespan: math.Inf(1)}
	for _, chunk := range []float64{8, 16, 32, 64, 128, 256, 512} {
		r, err := s.Simulate(w, fullConfig(chunk))
		if err != nil {
			t.Fatal(err)
		}
		if r.Makespan < best.Makespan {
			best = r
		}
	}
	// Static noiseless optimum is ~0.40 s (see perf tests); host-only is
	// ~0.62 s.
	if best.Makespan > 0.55 {
		t.Fatalf("best dynamic makespan %.3fs too far from the static optimum", best.Makespan)
	}
	if best.Makespan < 0.25 {
		t.Fatalf("best dynamic makespan %.3fs implausibly low", best.Makespan)
	}
}

func TestFewHostThreadsShiftShare(t *testing.T) {
	s := paperScheduler()
	w := offload.GenomeWorkload(dna.Human)
	cfg := fullConfig(64)
	full, err := s.Simulate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HostThreads = 4
	weak, err := s.Simulate(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if weak.HostShare() >= full.HostShare() {
		t.Fatalf("4 host threads should take a smaller share (%.2f vs %.2f)", weak.HostShare(), full.HostShare())
	}
}

// Property: chunks are conserved and busy times never exceed the
// makespan.
func TestConservationProperty(t *testing.T) {
	s := paperScheduler()
	w := offload.GenomeWorkload(dna.Cat)
	f := func(chunkRaw uint16, hostIdx, devIdx uint8) bool {
		chunk := float64(chunkRaw%1000) + 1
		cfg := fullConfig(chunk)
		cfg.HostThreads = []int{2, 6, 12, 24, 36, 48}[hostIdx%6]
		cfg.DeviceThreads = []int{2, 4, 8, 16, 30, 60, 120, 180, 240}[devIdx%9]
		res, err := s.Simulate(w, cfg)
		if err != nil {
			return false
		}
		if res.HostChunks+res.DeviceChunks != res.Chunks {
			return false
		}
		return res.HostBusy <= res.Makespan+1e-9 && res.DeviceBusy <= res.Makespan+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
