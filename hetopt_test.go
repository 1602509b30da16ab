package hetopt

import (
	"sync"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/serve"
)

// trainedTuner is shared across tests; training dominates runtime and is
// deterministic.
var (
	tunerOnce sync.Once
	tuner     *Tuner
	tunerErr  error
)

func sharedTuner(t *testing.T) *Tuner {
	t.Helper()
	tunerOnce.Do(func() {
		tuner = NewTuner()
		tunerErr = tuner.Train()
	})
	if tunerErr != nil {
		t.Fatal(tunerErr)
	}
	return tuner
}

func TestTunerSAMLEndToEnd(t *testing.T) {
	tu := sharedTuner(t)
	res, err := tu.TuneGenome(Human, SAML, Options{Iterations: 1000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != SAML {
		t.Fatalf("method = %v", res.Method)
	}
	if res.Config.HostFraction <= 0 || res.Config.HostFraction >= 100 {
		t.Errorf("SAML should split work, got fraction %g", res.Config.HostFraction)
	}
	host, dev, err := tu.Baselines(GenomeWorkload(Human))
	if err != nil {
		t.Fatal(err)
	}
	hostSpeedup := host.MeasuredE() / res.MeasuredE()
	devSpeedup := dev.MeasuredE() / res.MeasuredE()
	// Paper Section IV-D bands: 1.74x and 2.18x at 1000 iterations.
	if hostSpeedup < 1.1 {
		t.Errorf("speedup vs host-only = %.2f, expected > 1.1", hostSpeedup)
	}
	if devSpeedup < 1.2 {
		t.Errorf("speedup vs device-only = %.2f, expected > 1.2", devSpeedup)
	}
}

// TestTunerAnswersWhatServeAnswers: the facade trains and measures as
// the service does, so a Tuner answers a request with the
// configuration, measurement and effort serve's runner reports for it.
func TestTunerAnswersWhatServeAnswers(t *testing.T) {
	paper := sharedTuner(t)
	gpu, spmv, err := NewScenarioTuner("gpu-like", "spmv")
	if err != nil {
		t.Fatal(err)
	}
	if err := gpu.Train(); err != nil {
		t.Fatal(err)
	}
	human := GenomeWorkload(Human)
	runner := serve.NewRunner(nil, nil)
	for _, tc := range []struct {
		name  string
		req   serve.TuneRequest
		tuner *Tuner
		w     Workload
	}{
		{"paper-human-saml", serve.TuneRequest{Method: "saml"}, paper, human},
		{"paper-human-eml", serve.TuneRequest{Method: "eml"}, paper, human},
		{"paper-human-sam", serve.TuneRequest{Method: "sam"}, paper, human},
		{"gpu-like-spmv-saml", serve.TuneRequest{Platform: "gpu-like", Workload: "spmv", Method: "saml"}, gpu, spmv},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Seed, tc.req.Iterations = 1, 1000
			req, err := tc.req.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			want, err := runner.Run(req, 1)
			if err != nil {
				t.Fatal(err)
			}
			m, err := core.ParseMethod(req.Method)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tc.tuner.Tune(tc.w, m, Options{Iterations: req.Iterations, Seed: req.Seed})
			if err != nil {
				t.Fatal(err)
			}
			type answer struct {
				Distribution       string
				TimeSec, EnergyJ   float64
				Evals, Experiments int
			}
			got := answer{res.Config.String(), res.MeasuredE(), res.MeasuredJ(), res.SearchEvaluations, res.Experiments}
			served := answer{want.Distribution, want.TimeSec, want.EnergyJ, want.SearchEvaluations, want.Experiments}
			if got != served {
				t.Fatalf("facade answered %+v, serve %+v", got, served)
			}
		})
	}
}

func TestTunerRequiresTrainingForML(t *testing.T) {
	fresh := NewTuner()
	if _, err := fresh.Tune(GenomeWorkload(Cat), SAML, Options{Iterations: 10}); err == nil {
		t.Fatal("SAML without training should fail")
	}
	// Measurement-based methods work untrained.
	if _, err := fresh.Tune(GenomeWorkload(Cat), SAM, Options{Iterations: 10, Seed: 1}); err != nil {
		t.Fatalf("SAM should not need training: %v", err)
	}
}

func TestFacadeHelpers(t *testing.T) {
	for i, g := range []Genome{Human, Mouse, Cat, Dog} {
		if want := []string{"human", "mouse", "cat", "dog"}[i]; g.Name != want {
			t.Errorf("genome %d = %q, want %q", i, g.Name, want)
		}
	}
	if size := NewTuner().Schema.Size(); size != 19926 {
		t.Errorf("paper schema size = %d, want 19926", size)
	}
	if len(DefaultMotifs()) == 0 {
		t.Error("DefaultMotifs() is empty")
	}
}

func TestFacadeMatchingPipeline(t *testing.T) {
	d, err := CompileMotifs(DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(Human, 11)
	text := gen.Generate(1 << 16)
	if d.CountMatches(text) == 0 {
		t.Error("default motifs should occur in 64 KiB of synthetic DNA")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeExecuteRealRun(t *testing.T) {
	tu := sharedTuner(t)
	d, err := CompileMotifs(DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(Mouse, 4)
	total := int64(1 << 19)
	cfg := Config{
		HostThreads: 48, HostAffinity: AffinityScatter,
		DeviceThreads: 240, DeviceAffinity: AffinityBalanced,
		HostFraction: 60,
	}
	rep, err := Execute(tu.Platform, GenomeWorkload(Mouse), cfg, d, gen, total)
	if err != nil {
		t.Fatal(err)
	}
	seq := d.CountMatches(gen.Generate(int(total)))
	if rep.Matches != seq {
		t.Fatalf("heterogeneous execution counted %d, sequential %d", rep.Matches, seq)
	}
}

func TestCustomSchema(t *testing.T) {
	sc, err := NewSchema(SchemaSpec{
		HostThreads:      []int{8, 16},
		HostAffinities:   []Affinity{AffinityScatter},
		DeviceThreads:    []int{64},
		DeviceAffinities: []Affinity{AffinityBalanced},
		Fractions:        []float64{0, 50, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Size() != 2*1*1*1*3 {
		t.Fatalf("custom schema size = %d", sc.Size())
	}
}
