package core

import (
	"math/rand"
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

// TestSearchProblemPredictorLevelTable: a search over a predictor
// prices states from one level table per (predictor, schema), whose
// size is the sides' levels times the splits, not the schema's size
// (Table I has 2.9x the paper space's states). Every search over the
// pair shares the table, so a state one search priced never reaches
// the side memos again, and a step over a filled table allocates
// nothing.
func TestSearchProblemPredictorLevelTable(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	pred, err := NewPredictor(testModels(t, platform), w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	table1, err := space.NewSchema(space.Table1Spec())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		schema *space.Schema
		words  int
	}{{space.PaperSchema(), (6*3 + 9*3) * 41}, {table1, (7*3 + 9*3) * 101}} {
		tbl := pred.levelTable(tc.schema)
		if got := len(tbl.host.sec) + len(tbl.dev.sec); got != tc.words {
			t.Fatalf("level table over %d states holds %d predictions, want %d", tc.schema.Size(), got, tc.words)
		}
	}

	schema := space.PaperSchema()
	a := newSearchProblem(schema, pred, TimeObjective{}, space.StepMove)
	b := newSearchProblem(schema, pred, EnergyObjective{}, space.StepMove)
	if a.pred == nil || a.pred != b.pred {
		t.Fatal("two searches over one predictor and schema do not share one level table")
	}
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
		t.Fatalf("level-table energies %g/%g, direct %g/%g", ea, eb, direct.Times.E(), direct.Energy.Total())
	}
	if pred.hostMemo.Lookups() != 2 || pred.devMemo.Lookups() != 2 {
		t.Fatalf("side memos saw %d/%d lookups, want 2/2 (the direct evaluation and the table's fill)",
			pred.hostMemo.Lookups(), pred.devMemo.Lookups())
	}
	dst := make([]int, len(state))
	rng := rand.New(rand.NewSource(1))
	allocs := testing.AllocsPerRun(200, func() {
		b.Neighbor(dst, state, rng)
		if _, err := b.Energy(state); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a step over a filled level table allocates %g allocs/op, want 0", allocs)
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
