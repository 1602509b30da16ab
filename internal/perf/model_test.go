package perf

import (
	"math"
	"testing"
	"testing/quick"

	"hetopt/internal/machine"
)

// quiet returns a model of the paper platform with timing noise
// disabled, for deterministic assertions about the mean behaviour; edit
// adjusts the calibration further.
func quiet(edit ...func(*Calibration)) *Model {
	cal := DefaultCalibration()
	cal.NoiseStdHost = 0
	cal.NoiseStdDevice = 0
	for _, f := range edit {
		f(&cal)
	}
	return NewModel(machine.XeonE5Host(), machine.XeonPhi7120P(), cal)
}

var human = Traits{Name: "human", Complexity: 1}

func TestHostTimeZeroSize(t *testing.T) {
	m := quiet()
	got, err := m.HostTime(Assignment{SizeMB: 0, Threads: 48, Affinity: machine.AffinityScatter}, human)
	if err != nil || got != 0 {
		t.Fatalf("zero-size host time = %g, %v; want 0, nil", got, err)
	}
}

func TestNegativeSizeRejected(t *testing.T) {
	m := quiet()
	if _, err := m.HostTime(Assignment{SizeMB: -1, Threads: 4, Affinity: machine.AffinityScatter}, human); err == nil {
		t.Error("negative host size should fail")
	}
	if _, err := m.DeviceTime(Assignment{SizeMB: -1, Threads: 4, Affinity: machine.AffinityScatter}, human); err == nil {
		t.Error("negative device size should fail")
	}
}

func TestInvalidAffinityRejected(t *testing.T) {
	m := quiet()
	if _, err := m.HostTime(Assignment{SizeMB: 10, Threads: 4, Affinity: machine.AffinityBalanced}, human); err == nil {
		t.Error("balanced on host should fail")
	}
	if _, err := m.DeviceTime(Assignment{SizeMB: 10, Threads: 4, Affinity: machine.AffinityNone}, human); err == nil {
		t.Error("none on device should fail")
	}
}

func TestHostTimeMonotoneInSize(t *testing.T) {
	m := quiet()
	prev := 0.0
	for _, size := range []float64{100, 500, 1000, 2000, 3250} {
		got, err := m.HostTime(Assignment{SizeMB: size, Threads: 48, Affinity: machine.AffinityScatter}, human)
		if err != nil {
			t.Fatal(err)
		}
		if got <= prev {
			t.Fatalf("time %g at %g MB not greater than %g", got, size, prev)
		}
		prev = got
	}
}

func TestHostMoreThreadsFaster(t *testing.T) {
	m := quiet()
	prev := math.Inf(1)
	for _, n := range []int{2, 6, 12, 24, 48} {
		got, err := m.HostTime(Assignment{SizeMB: 3250, Threads: n, Affinity: machine.AffinityScatter}, human)
		if err != nil {
			t.Fatal(err)
		}
		if got >= prev {
			t.Fatalf("host %dT = %gs, not faster than previous %gs", n, got, prev)
		}
		prev = got
	}
}

func TestDeviceMoreThreadsFaster(t *testing.T) {
	m := quiet()
	prev := math.Inf(1)
	for _, n := range []int{2, 8, 30, 60, 120, 240} {
		got, err := m.DeviceTime(Assignment{SizeMB: 3250, Threads: n, Affinity: machine.AffinityBalanced}, human)
		if err != nil {
			t.Fatal(err)
		}
		if got >= prev {
			t.Fatalf("device %dT = %gs, not faster than previous %gs", n, got, prev)
		}
		prev = got
	}
}

func TestSublinearScaling(t *testing.T) {
	// Doubling threads must help, but less than 2x (gamma < 1 and SMT).
	m := quiet()
	t12, _ := m.HostThroughputFor(12, machine.AffinityScatter, Traits{})
	t24, _ := m.HostThroughputFor(24, machine.AffinityScatter, Traits{})
	if t24 <= t12 || t24 >= 2*t12 {
		t.Fatalf("scaling 12->24: %g -> %g, want sublinear speedup", t12, t24)
	}
}

func TestHyperThreadingGain(t *testing.T) {
	// 48 threads on 24 cores must beat 24 threads, by less than 30%.
	m := quiet()
	t24, _ := m.HostThroughputFor(24, machine.AffinityScatter, Traits{})
	t48, _ := m.HostThroughputFor(48, machine.AffinityScatter, Traits{})
	gain := t48 / t24
	if gain <= 1.0 || gain > 1.31 {
		t.Fatalf("HT gain = %g, want (1, 1.31]", gain)
	}
}

func TestCompactSlowerAtLowCounts(t *testing.T) {
	// Compact packs 2 threads on 1 core; scatter uses 2 cores: scatter
	// must win at low thread counts.
	m := quiet()
	sc, _ := m.HostThroughputFor(2, machine.AffinityScatter, Traits{})
	co, _ := m.HostThroughputFor(2, machine.AffinityCompact, Traits{})
	if co >= sc {
		t.Fatalf("compact 2T (%g) should be slower than scatter 2T (%g)", co, sc)
	}
}

func TestNonePenalty(t *testing.T) {
	m := quiet()
	sc, _ := m.HostThroughputFor(24, machine.AffinityScatter, Traits{})
	no, _ := m.HostThroughputFor(24, machine.AffinityNone, Traits{})
	if no >= sc {
		t.Fatalf("none (%g) should be slower than scatter (%g)", no, sc)
	}
}

func TestPaperShapeSmallInputPrefersCPUOnly(t *testing.T) {
	// Figure 2a: with 190 MB and 48 host threads, CPU-only beats every
	// split because offload overhead dominates.
	m := quiet()
	cpuOnly, _ := m.HostTime(Assignment{SizeMB: 190, Threads: 48, Affinity: machine.AffinityScatter}, human)
	for f := 10; f <= 90; f += 10 {
		hs := 190 * float64(f) / 100
		th, _ := m.HostTime(Assignment{SizeMB: hs, Threads: 48, Affinity: machine.AffinityScatter}, human)
		td, _ := m.DeviceTime(Assignment{SizeMB: 190 - hs, Threads: 240, Affinity: machine.AffinityBalanced}, human)
		if math.Max(th, td) <= cpuOnly {
			t.Fatalf("split %d/%d (%g) should be slower than CPU-only (%g)", f, 100-f, math.Max(th, td), cpuOnly)
		}
	}
}

func TestPaperShapeLargeInputPrefersSplit(t *testing.T) {
	// Figure 2b: with 3250 MB and 48 host threads a 60/40-70/30 split wins.
	m := quiet()
	bestF, bestE := -1, math.Inf(1)
	for f := 0; f <= 100; f += 10 {
		hs := 3250 * float64(f) / 100
		th, _ := m.HostTime(Assignment{SizeMB: hs, Threads: 48, Affinity: machine.AffinityScatter}, human)
		td, _ := m.DeviceTime(Assignment{SizeMB: 3250 - hs, Threads: 240, Affinity: machine.AffinityBalanced}, human)
		if e := math.Max(th, td); e < bestE {
			bestE, bestF = e, f
		}
	}
	if bestF < 50 || bestF > 80 {
		t.Fatalf("best split = %d/%d, want host share in [50, 80]", bestF, 100-bestF)
	}
}

func TestPaperShapeFewHostThreadsPrefersDevice(t *testing.T) {
	// Figure 2c: with only 4 host threads, most work should go to the
	// device.
	m := quiet()
	bestF, bestE := -1, math.Inf(1)
	for f := 0; f <= 100; f += 10 {
		hs := 3250 * float64(f) / 100
		th, _ := m.HostTime(Assignment{SizeMB: hs, Threads: 4, Affinity: machine.AffinityScatter}, human)
		td, _ := m.DeviceTime(Assignment{SizeMB: 3250 - hs, Threads: 240, Affinity: machine.AffinityBalanced}, human)
		if e := math.Max(th, td); e < bestE {
			bestE, bestF = e, f
		}
	}
	if bestF > 40 {
		t.Fatalf("best host share = %d%%, want <= 40%% with 4 host threads", bestF)
	}
}

func TestPaperSpeedupBands(t *testing.T) {
	// Section IV-D: heterogeneous execution ~1.7x over host-only and ~2x
	// over device-only. Accept generous bands around those targets.
	m := quiet()
	hostOnly, _ := m.HostTime(Assignment{SizeMB: 3247, Threads: 48, Affinity: machine.AffinityScatter}, human)
	devOnly, _ := m.DeviceTime(Assignment{SizeMB: 3247, Threads: 240, Affinity: machine.AffinityBalanced}, human)
	best := math.Inf(1)
	for f := 0.0; f <= 100; f += 2.5 {
		hs := 3247 * f / 100
		th, _ := m.HostTime(Assignment{SizeMB: hs, Threads: 48, Affinity: machine.AffinityScatter}, human)
		td, _ := m.DeviceTime(Assignment{SizeMB: 3247 - hs, Threads: 240, Affinity: machine.AffinityBalanced}, human)
		if e := math.Max(th, td); e < best {
			best = e
		}
	}
	hostSpeedup := hostOnly / best
	devSpeedup := devOnly / best
	if hostSpeedup < 1.3 || hostSpeedup > 2.1 {
		t.Errorf("speedup vs host-only = %.2f, want within [1.3, 2.1] (paper: 1.68-1.95)", hostSpeedup)
	}
	if devSpeedup < 1.5 || devSpeedup > 2.6 {
		t.Errorf("speedup vs device-only = %.2f, want within [1.5, 2.6] (paper: 2.02-2.36)", devSpeedup)
	}
}

func TestComplexityScalesTime(t *testing.T) {
	m := quiet()
	a := Assignment{SizeMB: 1000, Threads: 24, Affinity: machine.AffinityScatter}
	t1, _ := m.HostTime(a, Traits{Name: "x", Complexity: 1})
	t2, _ := m.HostTime(a, Traits{Name: "x", Complexity: 1.1})
	if t2 <= t1 {
		t.Fatalf("higher complexity should be slower: %g vs %g", t1, t2)
	}
}

func TestZeroComplexityDefaultsToOne(t *testing.T) {
	m := quiet()
	a := Assignment{SizeMB: 1000, Threads: 24, Affinity: machine.AffinityScatter}
	t0, _ := m.HostTime(a, Traits{Name: "x"})
	t1, _ := m.HostTime(a, Traits{Name: "x", Complexity: 1})
	if t0 != t1 {
		t.Fatalf("zero complexity should equal 1.0: %g vs %g", t0, t1)
	}
}

func TestNoiseDeterminism(t *testing.T) {
	m := NewPaperModel()
	a := Assignment{SizeMB: 1234, Threads: 24, Affinity: machine.AffinityScatter}
	x1, _ := m.HostTime(a, human)
	x2, _ := m.HostTime(a, human)
	if x1 != x2 {
		t.Fatalf("measuring again must reproduce: %g vs %g", x1, x2)
	}
}

func TestNoiseDistinctAcrossConfigs(t *testing.T) {
	m := NewPaperModel()
	a := Assignment{SizeMB: 1234, Threads: 24, Affinity: machine.AffinityScatter}
	b := Assignment{SizeMB: 1234, Threads: 36, Affinity: machine.AffinityScatter}
	q := quiet()
	ta, _ := m.HostTime(a, human)
	tb, _ := m.HostTime(b, human)
	qa, _ := q.HostTime(a, human)
	qb, _ := q.HostTime(b, human)
	if ta/qa == tb/qb {
		t.Fatal("noise factors should differ across configurations")
	}
}

func TestNoiseBounded(t *testing.T) {
	m := NewPaperModel()
	q := quiet()
	sigma := m.Calibration().NoiseStdHost
	lo, hi := 1-3*sigma, 1+3*sigma
	for i := 0; i < 200; i++ {
		a := Assignment{SizeMB: 500 + float64(i), Threads: 12, Affinity: machine.AffinityScatter}
		noisy, _ := m.HostTime(a, human)
		clean, _ := q.HostTime(a, human)
		if ratio := noisy / clean; ratio < lo-1e-9 || ratio > hi+1e-9 {
			t.Fatalf("%g MB: noise ratio %g outside [%g, %g]", a.SizeMB, ratio, lo, hi)
		}
	}
}

func TestDeviceTimeSpanWiderThanHost(t *testing.T) {
	// Section IV-B explains the device error histogram has a wider span
	// because device times span 0.9-42 s vs 0.74-5.5 s on the host. Check
	// our spans are ordered the same way.
	m := quiet()
	hostSlowest, _ := m.HostTime(Assignment{SizeMB: 3247, Threads: 2, Affinity: machine.AffinityScatter}, human)
	devSlowest, _ := m.DeviceTime(Assignment{SizeMB: 3247, Threads: 2, Affinity: machine.AffinityScatter}, human)
	if devSlowest <= hostSlowest {
		t.Fatalf("slowest device config (%g) should exceed slowest host config (%g)", devSlowest, hostSlowest)
	}
	if devSlowest < 20 || devSlowest > 60 {
		t.Errorf("device slowest = %.1fs, want order of the paper's 42 s", devSlowest)
	}
}

func TestBandwidthRooflineBinds(t *testing.T) {
	// Crank traffic per byte until the roofline must bind.
	m := quiet(func(c *Calibration) { c.BytesPerByte = 1000 })
	got, err := m.HostThroughputFor(48, machine.AffinityScatter, Traits{})
	if err != nil {
		t.Fatal(err)
	}
	want := m.Host().MemBandwidthGBs * 1000 * m.Calibration().BandwidthEfficiency / 1000
	if got != want {
		t.Fatalf("roofline throughput = %g, want %g", got, want)
	}
}

func TestOffloadLatencyAppliesOnlyWithWork(t *testing.T) {
	m := quiet()
	zero, _ := m.DeviceTime(Assignment{SizeMB: 0, Threads: 240, Affinity: machine.AffinityBalanced}, human)
	if zero != 0 {
		t.Fatalf("idle device should cost nothing, got %g", zero)
	}
	tiny, _ := m.DeviceTime(Assignment{SizeMB: 0.001, Threads: 240, Affinity: machine.AffinityBalanced}, human)
	if latency := m.Calibration().OffloadLatencySec; tiny < latency {
		t.Fatalf("any offload must pay the latency: %g < %g", tiny, latency)
	}
}

// Property: host and device times are strictly positive, finite, and
// monotone in size for any valid configuration.
func TestTimePositivityProperty(t *testing.T) {
	m := quiet()
	hostThreads := []int{2, 4, 6, 12, 24, 36, 48}
	devThreads := []int{2, 4, 8, 16, 30, 60, 120, 180, 240}
	hostAff := []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact}
	devAff := []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact}
	f := func(sizeRaw uint16, ti, ai uint8) bool {
		size := float64(sizeRaw%4000) + 1
		th, err := m.HostTime(Assignment{SizeMB: size, Threads: hostThreads[int(ti)%len(hostThreads)], Affinity: hostAff[int(ai)%len(hostAff)]}, human)
		if err != nil || th <= 0 || math.IsInf(th, 0) || math.IsNaN(th) {
			return false
		}
		td, err := m.DeviceTime(Assignment{SizeMB: size, Threads: devThreads[int(ti)%len(devThreads)], Affinity: devAff[int(ai)%len(devAff)]}, human)
		if err != nil || td <= 0 || math.IsInf(td, 0) || math.IsNaN(td) {
			return false
		}
		th2, _ := m.HostTime(Assignment{SizeMB: size * 2, Threads: hostThreads[int(ti)%len(hostThreads)], Affinity: hostAff[int(ai)%len(hostAff)]}, human)
		return th2 > th
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
