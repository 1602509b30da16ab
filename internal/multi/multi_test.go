package multi

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
)

func quietProblem(t *testing.T, nPhis int) *Problem {
	t.Helper()
	p, err := PaperProblem(nPhis, offload.GenomeWorkload(dna.Human))
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(m *perf.Model) *perf.Model {
		cal := m.Calibration()
		cal.NoiseStdHost, cal.NoiseStdDevice = 0, 0
		return perf.NewModel(m.Host(), m.Device(), cal)
	}
	p.Platform.host = quiet(p.Platform.host)
	for i, d := range p.Platform.devices {
		p.Platform.devices[i] = quiet(d)
	}
	return p
}

func TestNewPlatformValidation(t *testing.T) {
	if _, err := NewPlatform(nil, nil, nil); err == nil {
		t.Error("nil host should fail")
	}
	if _, err := NewPlatform(perf.NewPaperModel(), nil, nil); err == nil {
		t.Error("no devices should fail")
	}
	if _, err := NewPlatform(perf.NewPaperModel(), []string{"a"}, []*perf.Model{perf.NewPaperModel(), perf.NewPaperModel()}); err == nil {
		t.Error("name/device mismatch should fail")
	}
	if _, err := NewPlatform(perf.NewPaperModel(), []string{"a"}, []*perf.Model{nil}); err == nil {
		t.Error("nil device should fail")
	}
	if _, err := PaperWithPhis(0); err == nil {
		t.Error("zero Phis should fail")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{
		Host:    Assignment{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: 40},
		Devices: []Assignment{{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 60}},
	}
	if err := good.Validate(1); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Host.FractionPct = 50 // sums to 110
	if err := bad.Validate(1); err == nil {
		t.Error("bad simplex should fail")
	}
	if err := good.Validate(2); err == nil {
		t.Error("wrong device count should fail")
	}
	neg := good
	neg.Host.FractionPct = -10
	neg.Devices[0].FractionPct = 110
	if err := neg.Validate(1); err == nil {
		t.Error("negative fraction should fail")
	}
}

func TestMeasureTwoPhis(t *testing.T) {
	p := quietProblem(t, 2)
	cfg := Config{
		Host: Assignment{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: 40},
		Devices: []Assignment{
			{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 30},
			{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 30},
		},
	}
	times, err := p.Platform.Measure(p.Workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if times.Host <= 0 || times.Devices[0] <= 0 || times.Devices[1] <= 0 {
		t.Fatalf("times = %+v", times)
	}
	// Identical noiseless cards with identical shares take identical time.
	if times.Devices[0] != times.Devices[1] {
		t.Fatalf("identical quiet cards diverge: %g vs %g", times.Devices[0], times.Devices[1])
	}
	if times.E() < times.Host || times.E() < times.Devices[0] {
		t.Fatal("E must be the maximum")
	}
}

func TestPerCardNoiseIndependent(t *testing.T) {
	p, err := PaperProblem(2, offload.GenomeWorkload(dna.Human))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Host: Assignment{Threads: 48, Affinity: machine.AffinityScatter, FractionPct: 40},
		Devices: []Assignment{
			{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 30},
			{Threads: 240, Affinity: machine.AffinityBalanced, FractionPct: 30},
		},
	}
	times, err := p.Platform.Measure(p.Workload, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if times.Devices[0] == times.Devices[1] {
		t.Fatal("noisy identical cards should observe independent noise")
	}
}

func TestTuneTwoPhisBeatsOne(t *testing.T) {
	one := quietProblem(t, 1)
	two := quietProblem(t, 2)
	resOne, err := Tune(one, 2500, 1)
	if err != nil {
		t.Fatal(err)
	}
	resTwo, err := Tune(two, 2500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resTwo.Times.E() >= resOne.Times.E() {
		t.Fatalf("two Phis (%g) should beat one (%g)", resTwo.Times.E(), resOne.Times.E())
	}
	// The second card must actually receive work.
	work := 0.0
	for _, d := range resTwo.Config.Devices {
		if d.FractionPct > 0 {
			work++
		}
	}
	if work < 2 {
		t.Fatalf("tuner left a card idle: %v", resTwo.Config)
	}
}

func TestTuneConfigOnSimplex(t *testing.T) {
	p := quietProblem(t, 3)
	res, err := Tune(p, 1500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Config.Validate(3); err != nil {
		t.Fatalf("tuned config invalid: %v (%v)", err, res.Config)
	}
	if res.Iterations != 1500 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	if !strings.Contains(res.Config.String(), "host") {
		t.Error("config string malformed")
	}
}

func TestProblemValidate(t *testing.T) {
	p := quietProblem(t, 1)
	p.HostThreads = nil
	if err := p.Validate(); err == nil {
		t.Error("empty host threads should fail")
	}
	if _, err := Tune(&Problem{}, 10, 1); err == nil {
		t.Error("empty problem should fail")
	}
}

// Property: Initial and Neighbor preserve the simplex invariant (unit
// counts are non-negative and sum to fractionUnits) and keep indices in
// range.
func TestSimplexInvariantProperty(t *testing.T) {
	p := quietProblem(t, 2)
	f := func(seed int64, moves uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		state := make([]int, p.Dim())
		p.Initial(state, rng)
		for m := 0; m < int(moves); m++ {
			p.Neighbor(state, state, rng)
		}
		base := p.unitBase()
		sum := 0
		for i := base; i < len(state); i++ {
			if state[i] < 0 {
				return false
			}
			sum += state[i]
		}
		if sum != fractionUnits {
			return false
		}
		cfg, err := p.Decode(state)
		if err != nil {
			return false
		}
		return cfg.Validate(2) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeLengthChecked(t *testing.T) {
	p := quietProblem(t, 1)
	if _, err := p.Decode([]int{0}); err == nil {
		t.Error("short state should fail")
	}
}
