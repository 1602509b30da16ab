package multi

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/machine"
)

// TestFormatConfigNamesDevices is the regression test for the rendering
// bug: Config.String has no access to the platform's device names, so
// Platform.FormatConfig must label every device entry.
func TestFormatConfigNamesDevices(t *testing.T) {
	p := quietProblem(t, 2)
	cfg := Config{
		Host: Assignment{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: 40},
		Devices: []Assignment{
			{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 30},
			{Threads: 120, Affinity: machine.AffinityCompact, FractionPct: 30},
		},
	}
	got := p.Platform.FormatConfig(cfg)
	want := "host 40% (48T,scatter) | phi0 30% (240T,balanced) | phi1 30% (120T,compact)"
	if got != want {
		t.Fatalf("FormatConfig = %q, want %q", got, want)
	}
	// The bare String stays platform-agnostic and must not invent names.
	if s := cfg.String(); strings.Contains(s, "phi") {
		t.Fatalf("Config.String %q must not contain device names", s)
	}
	// Extra device entries beyond the platform's count degrade to an
	// index label instead of panicking.
	cfg.Devices = append(cfg.Devices, Assignment{Threads: 60, Affinity: machine.AffinityScatter, FractionPct: 0})
	cfg.Devices[0].FractionPct = 30
	if s := p.Platform.FormatConfig(cfg); !strings.Contains(s, "dev2") {
		t.Fatalf("overflow device entry not labeled: %q", s)
	}
}

// TestValidateToleranceScalesWithDevices is the regression test for the
// fixed simplex epsilon: with K=8 devices and fractions derived from
// float arithmetic (ninths), the accumulated rounding error must still
// validate.
func TestValidateToleranceScalesWithDevices(t *testing.T) {
	const k = 8
	cfg := Config{Host: Assignment{Threads: 48, Affinity: machine.AffinityScatter}}
	// Nine equal shares of 100/9: the float sum drifts from 100 by a few
	// ULPs, more than a single-unit epsilon allows.
	share := 100.0 / 9.0
	cfg.Host.FractionPct = share
	for i := 0; i < k; i++ {
		cfg.Devices = append(cfg.Devices, Assignment{
			Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: share,
		})
	}
	sum := cfg.Host.FractionPct
	for _, d := range cfg.Devices {
		sum += d.FractionPct
	}
	if sum == 100 {
		t.Skip("float sum landed exactly on 100; scenario not reached")
	}
	if err := cfg.Validate(k); err != nil {
		t.Fatalf("K=%d non-grid fractions rejected: %v", k, err)
	}
	// Real drift must still be caught.
	cfg.Devices[0].FractionPct += 0.5
	if err := cfg.Validate(k); err == nil {
		t.Fatal("half-percent drift must still fail validation")
	}
}

func TestMeasureFullEnergy(t *testing.T) {
	p := quietProblem(t, 2)
	cfg := Config{
		Host: Assignment{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: 40},
		Devices: []Assignment{
			{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 60},
			{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 0},
		},
	}
	m, err := p.Platform.MeasureFull(p.Workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Energy.Host <= 0 || m.Energy.Devices[0] <= 0 {
		t.Fatalf("engaged units must consume energy: %+v", m.Energy)
	}
	if m.Energy.Devices[1] != 0 {
		t.Fatalf("device with no work consumed %g J", m.Energy.Devices[1])
	}
	if got, want := m.Joules(), m.Energy.Host+m.Energy.Devices[0]; got != want {
		t.Fatalf("total %g != sum of engaged units %g", got, want)
	}
	// Times side matches the times-only path.
	times, err := p.Platform.Measure(p.Workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Times, times) {
		t.Fatalf("MeasureFull times %+v differ from Measure %+v", m.Times, times)
	}
}

// TestTuneEnergyObjective checks that the energy objective steers
// multi-device tuning toward a lower-energy distribution than time
// tuning, deterministically at every parallelism level.
func TestTuneEnergyObjective(t *testing.T) {
	timeP := quietProblem(t, 2)
	timeRes, err := TuneParallel(timeP, TuneOptions{Iterations: 1500, Seed: 7, Restarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	energyP := quietProblem(t, 2)
	energyP.Objective = core.EnergyObjective{}
	var want Result
	for i, par := range []int{1, 4, 8} {
		res, err := TuneParallel(energyP, TuneOptions{Iterations: 1500, Seed: 7, Restarts: 2, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			continue
		}
		if !reflect.DeepEqual(want, res) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", par, want, res)
		}
	}
	if want.Objective != "energy" {
		t.Fatalf("result records objective %q, want energy", want.Objective)
	}
	if want.Energy.Total() >= timeRes.Energy.Total() {
		t.Fatalf("energy tuning consumed %g J, not less than time tuning's %g J",
			want.Energy.Total(), timeRes.Energy.Total())
	}
	fmt.Printf("time-opt %s (%.1f J) vs energy-opt %s (%.1f J)\n",
		timeP.Platform.FormatConfig(timeRes.Config), timeRes.Energy.Total(),
		energyP.Platform.FormatConfig(want.Config), want.Energy.Total())
}
