package multi

import (
	"reflect"
	"testing"
)

func TestTuneParallelSingleChainMatchesTune(t *testing.T) {
	a, err := Tune(quietProblem(t, 2), 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TuneParallel(quietProblem(t, 2), TuneOptions{Iterations: 800, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("single-chain TuneParallel diverged from Tune:\n%+v\n%+v", a, b)
	}
}

func TestTuneParallelDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) Result {
		res, err := TuneParallel(quietProblem(t, 2), TuneOptions{
			Iterations:  500,
			Seed:        9,
			Restarts:    4,
			Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(1)
	for _, p := range []int{4, 8} {
		if got := run(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, want, got)
		}
	}
	if want.Iterations != 4*500 {
		t.Fatalf("iterations = %d, want %d", want.Iterations, 4*500)
	}
}

func TestTuneParallelChainsNeverWorse(t *testing.T) {
	single, err := TuneParallel(quietProblem(t, 2), TuneOptions{Iterations: 600, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	many, err := TuneParallel(quietProblem(t, 2), TuneOptions{Iterations: 600, Seed: 2, Restarts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if many.Times.E() > single.Times.E() {
		t.Fatalf("4 chains (%g) worse than chain 0 alone (%g)", many.Times.E(), single.Times.E())
	}
	if err := many.Config.Validate(2); err != nil {
		t.Fatalf("winning config invalid: %v", err)
	}
}
