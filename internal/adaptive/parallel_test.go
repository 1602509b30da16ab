package adaptive

import (
	"reflect"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/dna"
)

// TestRefineParallelMatchesSequential: a round's neighborhood is only
// scanned concurrently when the budget covers it whole, so the refined
// configuration and the measurements spent must be identical at every
// parallelism level.
func TestRefineParallelMatchesSequential(t *testing.T) {
	inst := fixture(t, dna.Human)
	seq, err := refine(inst, seedConfig(), Options{MeasureBudget: 60})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		par, err := refine(inst, seedConfig(), Options{MeasureBudget: 60, Parallelism: p})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("parallelism %d diverged:\nseq %+v\npar %+v", p, seq, par)
		}
	}
}

// TestTuneAndRefineParallelOptions drives the whole adaptive pipeline
// with a parallel, multi-chain SAML stage and a parallel refinement
// stage; the outcome must match the sequential run of the same seeds.
func TestTuneAndRefineParallelOptions(t *testing.T) {
	inst := fixture(t, dna.Human)
	type outcome struct {
		samlE, refinedE float64
	}
	run := func(parallelism int) outcome {
		saml, refined, err := TuneAndRefine(inst,
			core.Options{Iterations: 300, Seed: 3, Restarts: 2, Parallelism: parallelism},
			Options{MeasureBudget: 40, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return outcome{saml.MeasuredE(), refined.MeasuredE}
	}
	want := run(1)
	if got := run(4); got != want {
		t.Fatalf("parallel pipeline diverged: %+v vs %+v", got, want)
	}
}
