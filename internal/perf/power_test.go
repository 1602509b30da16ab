package perf

import (
	"math"
	"testing"

	"hetopt/internal/machine"
)

func TestActivePowerMonotoneInThreads(t *testing.T) {
	m := NewPaperModel()
	cal := m.Calibration()
	prev := 0.0
	for _, threads := range []int{2, 6, 12, 24, 36, 48} {
		p, err := m.HostActivePowerW(threads, machine.AffinityScatter)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("host power %g W at %d threads not above %g W", p, threads, prev)
		}
		if p <= cal.HostIdleW {
			t.Fatalf("active power %g W must exceed idle %g W", p, cal.HostIdleW)
		}
		prev = p
	}
	prev = 0.0
	for _, threads := range []int{2, 30, 120, 240} {
		p, err := m.DeviceActivePowerW(threads, machine.AffinityBalanced)
		if err != nil {
			t.Fatal(err)
		}
		if p <= prev {
			t.Fatalf("device power %g W at %d threads not above %g W", p, threads, prev)
		}
		prev = p
	}
}

func TestActivePowerPlausibleRange(t *testing.T) {
	// Full load must land near the hardware's sustained draw: below the
	// combined TDP, above the idle floor.
	m := NewPaperModel()
	host, err := m.HostActivePowerW(48, machine.AffinityScatter)
	if err != nil {
		t.Fatal(err)
	}
	if host < 150 || host > 230 {
		t.Errorf("host full-load power %g W outside the 2x115 W TDP envelope", host)
	}
	dev, err := m.DeviceActivePowerW(240, machine.AffinityBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if dev < 200 || dev > 300 {
		t.Errorf("device full-load power %g W outside the 300 W TDP envelope", dev)
	}
}

func TestAffinityNonePowerPenalty(t *testing.T) {
	m := NewPaperModel()
	scatter, err := m.HostActivePowerW(24, machine.AffinityScatter)
	if err != nil {
		t.Fatal(err)
	}
	none, err := m.HostActivePowerW(24, machine.AffinityNone)
	if err != nil {
		t.Fatal(err)
	}
	if none <= scatter {
		t.Errorf("OS scheduling (%g W) should draw more than scatter (%g W)", none, scatter)
	}
}

func TestEnergyDeterministicAndKeyed(t *testing.T) {
	m := NewPaperModel()
	cal := m.Calibration()
	a := Assignment{SizeMB: 1000, Threads: 48, Affinity: machine.AffinityScatter}
	w := Traits{Name: "human"}
	e1, err := m.HostEnergy(a, w, 2.0, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := m.HostEnergy(a, w, 2.0, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("same key produced %g and %g J", e1, e2)
	}
	e3, err := m.HostEnergy(a, Traits{Name: "mouse"}, 2.0, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e1 {
		t.Error("different workloads should observe different noise draws")
	}
	// The noise is a small relative perturbation around the analytic
	// value P_active*busy + P_idle*(makespan-busy).
	p, err := m.HostActivePowerW(a.Threads, a.Affinity)
	if err != nil {
		t.Fatal(err)
	}
	want := p*2.0 + cal.HostIdleW*0.5
	if math.Abs(e1-want)/want > 5*cal.NoiseStdHostPower {
		t.Fatalf("energy %g J too far from analytic %g J", e1, want)
	}
}

func TestEnergyDisengagedUnit(t *testing.T) {
	m := NewPaperModel()
	w := Traits{Name: "human"}
	e, err := m.HostEnergy(Assignment{SizeMB: 0, Threads: 48}, w, 0, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("a unit with no work must consume nothing, got %g J", e)
	}
	e, err = m.DeviceEnergy(Assignment{SizeMB: 0, Threads: 240}, w, 0, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if e != 0 {
		t.Errorf("a disengaged device must consume nothing, got %g J", e)
	}
}

func TestEnergyRejectsInvalidPlacement(t *testing.T) {
	m := NewPaperModel()
	w := Traits{Name: "human"}
	if _, err := m.HostEnergy(Assignment{SizeMB: 10, Threads: -1, Affinity: machine.AffinityScatter}, w, 1, 1); err == nil {
		t.Error("negative thread count should fail")
	}
	if _, err := m.DeviceEnergy(Assignment{SizeMB: 10, Threads: -1, Affinity: machine.AffinityBalanced}, w, 1, 1); err == nil {
		t.Error("negative device thread count should fail")
	}
}
