package parem

import (
	"testing"
	"testing/quick"

	"hetopt/internal/automata"
	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

func quietPlatform() *offload.Platform {
	cal := perf.DefaultCalibration()
	cal.NoiseStdHost, cal.NoiseStdDevice = 0, 0
	return offload.NewPlatformWithModel(perf.NewModel(machine.XeonE5Host(), machine.XeonPhi7120P(), cal))
}

func balancedConfig(fraction float64) space.Config {
	return space.Config{
		HostThreads: 48, HostAffinity: machine.AffinityScatter,
		DeviceThreads: 240, DeviceAffinity: machine.AffinityBalanced,
		HostFraction: fraction,
	}
}

func TestExecuteCountsMatchSequential(t *testing.T) {
	p := quietPlatform()
	d, err := automata.CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := dna.NewGenerator(dna.Human, 5).WithPlantedMotif("GAATTC", 300)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(1 << 20)
	text := gen.Generate(int(total))
	want := d.CountMatches(text)

	for _, fraction := range []float64{0, 2.5, 37.5, 60, 100} {
		rep, err := Execute(p, offload.GenomeWorkload(dna.Human), balancedConfig(fraction), d, gen, total)
		if err != nil {
			t.Fatalf("fraction %g: %v", fraction, err)
		}
		if rep.Matches != want {
			t.Fatalf("fraction %g: matches = %d, want %d (boundary handling broken)", fraction, rep.Matches, want)
		}
		if rep.HostBytes+rep.DeviceBytes != total {
			t.Fatalf("fraction %g: byte split %d+%d != %d", fraction, rep.HostBytes, rep.DeviceBytes, total)
		}
		if rep.Times.E() <= 0 {
			t.Fatalf("fraction %g: non-positive modeled time", fraction)
		}
	}
}

func TestExecuteValidation(t *testing.T) {
	p := quietPlatform()
	d, err := automata.CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	gen := dna.NewGenerator(dna.Human, 5)
	if _, err := Execute(p, offload.Workload{}, balancedConfig(50), d, gen, 100); err == nil {
		t.Error("invalid workload should fail")
	}
	if _, err := Execute(p, offload.GenomeWorkload(dna.Human), balancedConfig(50), d, gen, -1); err == nil {
		t.Error("negative total should fail")
	}
	if _, err := Execute(p, offload.GenomeWorkload(dna.Human), balancedConfig(200), d, gen, 100); err == nil {
		t.Error("bad fraction should fail")
	}
}

// Property: Execute conserves matches for any fraction on the grid.
func TestExecuteConservationProperty(t *testing.T) {
	p := quietPlatform()
	d, err := automata.CompileMotifs([]dna.Motif{{Name: "tata", Pattern: "TATAAA"}, {Name: "ecoRI", Pattern: "GAATTC"}})
	if err != nil {
		t.Fatal(err)
	}
	gen := dna.NewGenerator(dna.Dog, 23)
	total := int64(1 << 17)
	want := d.CountMatches(gen.Generate(int(total)))
	f := func(fRaw uint8, hostW, devW uint8) bool {
		fraction := float64(fRaw%41) * 2.5
		cfg := balancedConfig(fraction)
		cfg.HostThreads = []int{2, 6, 12, 24, 36, 48}[hostW%6]
		cfg.DeviceThreads = []int{2, 4, 8, 16, 30, 60, 120, 180, 240}[devW%9]
		rep, err := Execute(p, offload.GenomeWorkload(dna.Dog), cfg, d, gen, total)
		if err != nil {
			return false
		}
		return rep.Matches == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExecuteUnboundedContextDFA(t *testing.T) {
	// A repetition pattern has no bounded context: the engine must fall
	// back to the enumerative strategy on both shares and still conserve
	// matches across the distribution boundary.
	p := quietPlatform()
	d, err := automata.CompilePattern("GA(AT)+TC")
	if err != nil {
		t.Fatal(err)
	}
	if d.ContextLen != 0 {
		t.Fatalf("pattern should be unbounded, ContextLen=%d", d.ContextLen)
	}
	gen := dna.NewGenerator(dna.Mouse, 77)
	total := int64(1 << 20)
	want := d.CountMatches(gen.Generate(int(total)))
	rep, err := Execute(p, offload.GenomeWorkload(dna.Mouse), balancedConfig(50), d, gen, total)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != want {
		t.Fatalf("unbounded-context split counted %d, sequential %d", rep.Matches, want)
	}
}

func TestExecuteZeroTotal(t *testing.T) {
	p := quietPlatform()
	d, err := automata.CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	gen := dna.NewGenerator(dna.Human, 1)
	rep, err := Execute(p, offload.GenomeWorkload(dna.Human), balancedConfig(60), d, gen, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Matches != 0 || rep.HostBytes != 0 || rep.DeviceBytes != 0 {
		t.Fatalf("zero-length execution produced %+v", rep)
	}
}
