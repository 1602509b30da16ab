package core

import (
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// TestPredictorEvaluateSteadyStateZeroAllocs pins the steady-state
// prediction path as allocation-free: with both per-side memos warm and
// the power tables built, Evaluate is lookups and arithmetic only. The
// model-based methods (EML, SAML) spend their entire search budget on
// this path.
func TestPredictorEvaluateSteadyStateZeroAllocs(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	models := testModels(t, platform)
	pred, err := NewPredictor(models, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.Config{
		HostThreads: 48, HostAffinity: machine.AffinityScatter,
		DeviceThreads: 240, DeviceAffinity: machine.AffinityBalanced,
		HostFraction: 60,
	}
	if _, err := pred.Evaluate(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := pred.Evaluate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Evaluate allocates %g allocs/op, want 0", allocs)
	}
}

// TestSearchProblemPredictorOrdinalMemo: a search over a predictor
// memoizes whole evaluations by ordinal, one table per schema shared by
// every search over it: a repeated state is a hit on that table and
// never reaches the side memos again, and the hit allocates nothing.
func TestSearchProblemPredictorOrdinalMemo(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	pred, err := NewPredictor(testModels(t, platform), w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	schema := space.PaperSchema()
	a := NewSearchProblem(schema, pred, nil, space.StepMove)
	b := NewSearchProblem(schema, pred, EnergyObjective{}, space.StepMove)
	state := []int{5, 1, 8, 0, 24}
	cfg, err := schema.Config(state)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := pred.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := a.Energy(state)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Energy(state)
	if err != nil {
		t.Fatal(err)
	}
	if ea != direct.Times.E() || eb != direct.Energy.Total() {
		t.Fatalf("memoized energies %g/%g, direct %g/%g", ea, eb, direct.Times.E(), direct.Energy.Total())
	}
	memo := pred.evalMemo(schema)
	if memo.Unique() != 1 || memo.Hits() != 1 {
		t.Fatalf("ordinal memo %d unique / %d hits, want 1 / 1", memo.Unique(), memo.Hits())
	}
	if pred.hostMemo.Lookups() != 2 || pred.devMemo.Lookups() != 2 {
		t.Fatalf("side memos saw %d/%d lookups, want 2/2 (the direct evaluation and one miss)",
			pred.hostMemo.Lookups(), pred.devMemo.Lookups())
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.Energy(state); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ordinal-memo hit allocates %g allocs/op, want 0", allocs)
	}
}

// TestEnumerationAllocsIndependentOfSpaceSize: an EM enumeration's
// allocations do not grow with the number of configurations — the
// Table I space is ~2.9x the paper space and costs the same count.
func TestEnumerationAllocsIndependentOfSpaceSize(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	table1, err := space.NewSchema(space.Table1Spec())
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(schema *space.Schema) float64 {
		inst := &Instance{Schema: schema, Measurer: NewMeasurer(platform, w)}
		return testing.AllocsPerRun(2, func() {
			if _, err := Run(EM, inst, Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	paper, full := allocs(space.PaperSchema()), allocs(table1)
	if full > paper+8 {
		t.Fatalf("EM allocs grow with space size: %g on %d configs, %g on %d", paper, 19926, full, table1.Size())
	}
}
