package offload

import (
	"math"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

func quietPlatform() *Platform {
	cal := perf.DefaultCalibration()
	cal.NoiseStdHost, cal.NoiseStdDevice = 0, 0
	return NewPlatformWithModel(perf.NewModel(machine.XeonE5Host(), machine.XeonPhi7120P(), cal))
}

func balancedConfig(fraction float64) space.Config {
	return space.Config{
		HostThreads: 48, HostAffinity: machine.AffinityScatter,
		DeviceThreads: 240, DeviceAffinity: machine.AffinityBalanced,
		HostFraction: fraction,
	}
}

func TestTimesE(t *testing.T) {
	if got := (Times{Host: 2, Device: 3}).E(); got != 3 {
		t.Fatalf("E = %g, want 3 (Equation 2)", got)
	}
	if got := (Times{Host: 5, Device: 3}).E(); got != 5 {
		t.Fatalf("E = %g, want 5", got)
	}
}

func TestGenomeWorkload(t *testing.T) {
	w := GenomeWorkload(dna.Human)
	if w.Name != "human" || w.SizeMB != dna.Human.SizeMB || w.Complexity != 1 {
		t.Fatalf("workload = %+v", w)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := (Workload{Name: "", SizeMB: 1}).Validate(); err == nil {
		t.Error("empty name should fail")
	}
	if err := (Workload{Name: "x", SizeMB: 0}).Validate(); err == nil {
		t.Error("zero size should fail")
	}
}

func TestWorkloadScaled(t *testing.T) {
	w := GenomeWorkload(dna.Human).Scaled(190)
	if w.SizeMB != 190 || w.Name != "human" {
		t.Fatalf("scaled workload = %+v", w)
	}
}

func TestMeasureSplitsWork(t *testing.T) {
	p := quietPlatform()
	w := GenomeWorkload(dna.Human)
	full, err := p.Measure(w, balancedConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if full.Device != 0 {
		t.Fatalf("CPU-only run should have zero device time, got %g", full.Device)
	}
	devOnly, err := p.Measure(w, balancedConfig(0))
	if err != nil {
		t.Fatal(err)
	}
	if devOnly.Host != 0 {
		t.Fatalf("device-only run should have zero host time, got %g", devOnly.Host)
	}
	split, err := p.Measure(w, balancedConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	if split.Host <= 0 || split.Device <= 0 {
		t.Fatalf("split run times = %+v", split)
	}
	if split.Host >= full.Host {
		t.Fatalf("60%% host share (%g) should beat 100%% (%g)", split.Host, full.Host)
	}
}

func TestMeasureRejectsBadFraction(t *testing.T) {
	p := quietPlatform()
	w := GenomeWorkload(dna.Human)
	for _, f := range []float64{-1, 101} {
		if _, err := p.Measure(w, balancedConfig(f)); err == nil {
			t.Errorf("fraction %g should fail", f)
		}
	}
}

func TestMeasureRejectsBadConfig(t *testing.T) {
	p := quietPlatform()
	w := GenomeWorkload(dna.Human)
	cfg := balancedConfig(50)
	cfg.HostAffinity = machine.AffinityBalanced // invalid on host
	if _, err := p.Measure(w, cfg); err == nil {
		t.Error("invalid host affinity should fail")
	}
	cfg = balancedConfig(50)
	cfg.DeviceThreads = 0
	if _, err := p.Measure(w, cfg); err == nil {
		t.Error("zero device threads with device work should fail")
	}
}

func TestMeasureObjectiveShape(t *testing.T) {
	// The heterogeneous optimum must beat both host-only and device-only
	// for a paper-scale workload (Section IV-D).
	p := quietPlatform()
	w := GenomeWorkload(dna.Human)
	hostOnly, _ := p.Measure(w, balancedConfig(100))
	devOnly, _ := p.Measure(w, balancedConfig(0))
	best := math.Inf(1)
	for f := 2.5; f < 100; f += 2.5 {
		ti, err := p.Measure(w, balancedConfig(f))
		if err != nil {
			t.Fatal(err)
		}
		if ti.E() < best {
			best = ti.E()
		}
	}
	if best >= hostOnly.E() || best >= devOnly.E() {
		t.Fatalf("best split %g should beat host-only %g and device-only %g", best, hostOnly.E(), devOnly.E())
	}
}

// TestMeasureNoiseReproduces: measuring a configuration again
// reproduces its noisy measurement, and the noise does perturb it.
func TestMeasureNoiseReproduces(t *testing.T) {
	p := NewPlatform() // noise enabled
	w := GenomeWorkload(dna.Cat)
	a, err := p.Measure(w, balancedConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Measure(w, balancedConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("measuring again must reproduce the same measurement")
	}
	quiet, err := quietPlatform().Measure(w, balancedConfig(60))
	if err != nil {
		t.Fatal(err)
	}
	if a == quiet {
		t.Fatal("noise should perturb the measurement")
	}
}

func TestPlatformAccessors(t *testing.T) {
	p := NewPlatform()
	if p.Host().TotalThreads() != 48 || p.Device().TotalThreads() != 240 {
		t.Fatalf("platform processors wrong: %s / %s", p.Host().Name, p.Device().Name)
	}
	if p.Model() == nil {
		t.Fatal("model accessor returned nil")
	}
}

func TestMeasureScaledWorkloadKeepsIdentity(t *testing.T) {
	// Scaling a workload must keep its name (noise identity) while
	// changing only the size.
	p := quietPlatform()
	w := GenomeWorkload(dna.Cat).Scaled(123)
	ti, err := p.Measure(w, balancedConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	w2 := Workload{Name: "cat", SizeMB: 123, Complexity: dna.Cat.Complexity}
	ti2, err := p.Measure(w2, balancedConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	if ti != ti2 {
		t.Fatalf("scaled workload measured differently: %+v vs %+v", ti, ti2)
	}
}
