package core

import (
	"reflect"
	"testing"

	"hetopt/internal/dna"
)

// TestRunDeterministicAcrossParallelism is the engine's core contract:
// for a fixed seed the returned Result is bit-identical at every
// parallelism level, for every method, with and without restarts.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	cases := []struct {
		name string
		m    Method
		opt  Options
	}{
		{"EM", EM, Options{}},
		{"EML", EML, Options{}},
		{"SAM", SAM, Options{Iterations: 300, Seed: 5}},
		{"SAML", SAML, Options{Iterations: 300, Seed: 5}},
		{"SAM-restarts", SAM, Options{Iterations: 200, Seed: 5, Restarts: 4}},
		{"SAML-restarts", SAML, Options{Iterations: 200, Seed: 5, Restarts: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want Result
			for i, p := range []int{1, 4, 8} {
				opt := tc.opt
				opt.Parallelism = p
				res, err := Run(tc.m, inst, opt)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					want = res
					continue
				}
				if !reflect.DeepEqual(want, res) {
					t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, res)
				}
			}
		})
	}
}

// TestEnumerationUniqueEvaluations checks the cache-hit accounting
// invariant: EM over the full space performs exactly |space| unique
// evaluations (plus the one fair-comparison measurement), at any
// parallelism level.
func TestEnumerationUniqueEvaluations(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	for _, p := range []int{1, 4} {
		inst.Measurer.ResetCount()
		res, err := Run(EM, inst, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if res.SearchEvaluations != inst.Schema.Size() {
			t.Fatalf("p=%d: EM evaluated %d configs, want %d", p, res.SearchEvaluations, inst.Schema.Size())
		}
		if got := inst.Measurer.Count(); got != inst.Schema.Size()+1 {
			t.Fatalf("p=%d: measurer saw %d experiments, want %d", p, got, inst.Schema.Size()+1)
		}
	}
}

// TestRestartsRawMeasurerChargesEveryEvaluation: the strategy layer
// adds no memo of its own, so multi-chain SAM over a raw Measurer pays
// one experiment per search evaluation, revisits included, plus the
// final fair-comparison measurement.
func TestRestartsRawMeasurerChargesEveryEvaluation(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	inst.Measurer.ResetCount()
	res, err := Run(SAM, inst, Options{Iterations: 300, Seed: 5, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	// 6 chains x (1 initial + 300 candidates) evaluations.
	if want := 6 * 301; res.SearchEvaluations != want {
		t.Fatalf("search evaluations = %d, want %d", res.SearchEvaluations, want)
	}
	if res.Experiments != res.SearchEvaluations+1 {
		t.Fatalf("experiments = %d, want %d search evaluations + 1 final measurement",
			res.Experiments, res.SearchEvaluations)
	}
	if res.Experiments != inst.Measurer.Count() {
		t.Fatalf("result reports %d experiments, measurer saw %d", res.Experiments, inst.Measurer.Count())
	}
}

// TestRestartsShareCache: over a SharedMeasurements view, multi-chain
// SAM is charged once per distinct configuration, which is strictly
// less than the evaluation count once chains overlap.
func TestRestartsShareCache(t *testing.T) {
	raw, platform := instance(t, dna.Human)
	shared, err := NewSharedMeasurements(platform, raw.Measurer.Workload, raw.Schema)
	if err != nil {
		t.Fatal(err)
	}
	inst := shared.Instance()
	res, err := Run(SAM, &inst, Options{Iterations: 300, Seed: 5, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if want := 6 * 301; res.SearchEvaluations != want {
		t.Fatalf("search evaluations = %d, want %d", res.SearchEvaluations, want)
	}
	if res.Experiments >= res.SearchEvaluations {
		t.Fatalf("experiments %d not deduplicated below %d evaluations (the small space guarantees chain overlap)",
			res.Experiments, res.SearchEvaluations)
	}
	if res.Experiments != inst.Measurer.Count() {
		t.Fatalf("result reports %d experiments, measurer saw %d", res.Experiments, inst.Measurer.Count())
	}
}

// TestRestartsNeverWorseThanChainZero: the multi-chain winner is a min
// over a set containing chain 0's outcome, so its search energy cannot be
// worse than the single-chain run with the same seed.
func TestRestartsNeverWorseThanChainZero(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	single, err := Run(SAM, inst, Options{Iterations: 200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(SAM, inst, Options{Iterations: 200, Seed: 7, Restarts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if multi.SearchE > single.SearchE {
		t.Fatalf("5 chains (%g) worse than chain 0 alone (%g)", multi.SearchE, single.SearchE)
	}
}

// TestParallelEnumerationMatchesSequentialScan verifies the sharded
// enumeration against the seed implementation's sequential semantics:
// lowest energy wins, earliest configuration among ties.
func TestParallelEnumerationMatchesSequentialScan(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	seq, err := Run(EM, inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 7, 16} {
		par, err := Run(EM, inst, Options{Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if par.Config != seq.Config || par.SearchE != seq.SearchE {
			t.Fatalf("p=%d: %v (%g) != sequential %v (%g)", p, par.Config, par.SearchE, seq.Config, seq.SearchE)
		}
	}
}

// TestPredictorConcurrentUse drives one Predictor from many goroutines;
// run under -race this guards the memo tables.
func TestPredictorConcurrentUse(t *testing.T) {
	inst, _ := instance(t, dna.Human)
	res1, err := Run(EML, inst, Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(EML, inst, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("concurrent EML diverged: %+v vs %+v", res1, res2)
	}
}
