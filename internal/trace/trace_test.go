package trace

import (
	"math/rand"
	"strings"
	"testing"

	"hetopt/internal/strategy"
)

// bowl is a small quadratic test problem.
type bowl struct{ target []int }

func (b *bowl) Dim() int { return len(b.target) }
func (b *bowl) Initial(dst []int, rng *rand.Rand) {
	for i := range dst {
		dst[i] = rng.Intn(20)
	}
}
func (b *bowl) Neighbor(dst, src []int, rng *rand.Rand) {
	copy(dst, src)
	i := rng.Intn(len(dst))
	if dst[i] == 0 {
		dst[i] = 1
	} else if rng.Intn(2) == 0 {
		dst[i]--
	} else {
		dst[i]++
	}
}
func (b *bowl) Energy(state []int) (float64, error) {
	e := 0.0
	for i, v := range state {
		d := float64(v - b.target[i])
		e += d * d
	}
	return e, nil
}

func record(t *testing.T, iters int) *Recorder {
	t.Helper()
	rec := &Recorder{}
	_, err := strategy.Anneal{InitialTemp: 50}.Minimize(&bowl{target: []int{7, 12}}, strategy.Options{
		Budget: iters,
		Seed:   3,
		OnStep: rec.Hook(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecorderCapturesAllSteps(t *testing.T) {
	rec := record(t, 400)
	if rec.Len() != 400 {
		t.Fatalf("recorded %d steps, want 400", rec.Len())
	}
	if len(rec.Steps()) != 400 {
		t.Fatal("Steps() length mismatch")
	}
}

func TestSummary(t *testing.T) {
	rec := record(t, 400)
	sum, err := rec.Summarize()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Iterations != 400 {
		t.Fatalf("iterations = %d", sum.Iterations)
	}
	if sum.AcceptanceRate <= 0 || sum.AcceptanceRate > 1 {
		t.Fatalf("acceptance rate = %g", sum.AcceptanceRate)
	}
	if sum.FinalBest > sum.FirstBest {
		t.Fatal("best energy must not increase")
	}
	if sum.BestFoundAtIter < 0 || sum.BestFoundAtIter >= 400 {
		t.Fatalf("best found at %d", sum.BestFoundAtIter)
	}
	if len(sum.Phases) != 4 {
		t.Fatalf("phases = %d", len(sum.Phases))
	}
	// Explore-to-exploit: late acceptance must be below early acceptance
	// for a schedule spanning the energy scale.
	if sum.Phases[3] >= sum.Phases[0] {
		t.Errorf("acceptance did not fall: %v", sum.Phases)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	rec := &Recorder{}
	if _, err := rec.Summarize(); err == nil {
		t.Fatal("empty recording should fail")
	}
}

func TestRenderConvergence(t *testing.T) {
	rec := record(t, 300)
	out := rec.RenderConvergence("anneal trace")
	for _, want := range []string{"anneal trace", "best", "current", "acceptance rate", "best found at iter", "acceptance Q4"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q", want)
		}
	}
	if out := (&Recorder{}).RenderConvergence("x"); !strings.Contains(out, "empty") {
		t.Error("empty recorder should say so")
	}
}
