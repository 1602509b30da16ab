package core_test

import (
	"math"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/scenario"
	"hetopt/internal/space"
)

// measurementBits is a measurement's four floats as bits.
func measurementBits(m offload.Measurement) [4]uint64 {
	return [4]uint64{math.Float64bits(m.Times.Host), math.Float64bits(m.Times.Device),
		math.Float64bits(m.Energy.Host), math.Float64bits(m.Energy.Device)}
}

// checkStatePathMatchesConfigPath measures every state of schema
// through a view's state path and another view's Evaluate(cfg), first
// on two fresh shared memos and then on two fresh views of the memos
// the other path warmed. Each pair must agree bit for bit (errors by
// message) with each other and with MeasureFull, and charge the same
// experiments after every state. It returns how many states failed.
func checkStatePathMatchesConfigPath(t *testing.T, p *offload.Platform, w offload.Workload, schema *space.Schema) (failed int) {
	t.Helper()
	newShared := func() *core.SharedMeasurements {
		s, err := core.NewSharedMeasurements(p, w, schema)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	byState, byConfig := newShared(), newShared()
	for _, phase := range []string{"fresh", "warm"} {
		if phase == "warm" {
			byState, byConfig = byConfig, byState
		}
		stateInst, cfgInst := byState.Instance(), byConfig.Instance()
		failed = 0
		for ord := 0; ord < schema.Size(); ord++ {
			state, err := schema.Space().Unflatten(ord)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := schema.Config(state)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := p.MeasureFull(w, cfg)
			viaState, stateErr := core.EvaluateState(stateInst.MeasureCache, state)
			viaCfg, cfgErr := cfgInst.MeasureCache.Evaluate(cfg)
			for path, got := range map[string]struct {
				m   offload.Measurement
				err error
			}{"state": {viaState, stateErr}, "config": {viaCfg, cfgErr}} {
				if (got.err == nil) != (wantErr == nil) || (wantErr != nil && got.err.Error() != wantErr.Error()) ||
					measurementBits(got.m) != measurementBits(want) {
					t.Fatalf("%s %s path %v: %+v (%v), MeasureFull %+v (%v)", phase, path, cfg, got.m, got.err, want, wantErr)
				}
			}
			if wantErr != nil {
				failed++
			}
			if a, b := stateInst.Measurer.Count(), cfgInst.Measurer.Count(); a != b {
				t.Fatalf("%s %v: state path charged %d experiments, config path %d", phase, cfg, a, b)
			}
		}
		// A fresh view pays each state it measured once; replaying a
		// failure another view paid is free.
		wantCharged := schema.Size()
		if phase == "warm" {
			wantCharged -= failed
		}
		if got := stateInst.Measurer.Count(); got != wantCharged {
			t.Fatalf("%s: charged %d experiments over %d states (%d failing), want %d", phase, got, schema.Size(), failed, wantCharged)
		}
	}
	return failed
}

// TestSharedStatePathMatchesConfigPath: on every state of each shipped
// platform's schema, a search state measured through the shared view's
// level-indexed state path and its configuration measured through
// Evaluate give the same bits and charge the same experiments, on
// fresh and on warm memos.
func TestSharedStatePathMatchesConfigPath(t *testing.T) {
	var w offload.Workload
	for _, fam := range scenario.Families() {
		if fam.IsDAG() {
			continue
		}
		var err error
		if w, err = fam.Workload(fam.Presets[0].Name); err != nil {
			t.Fatal(err)
		}
		break
	}
	for _, spec := range scenario.Platforms() {
		schema, err := spec.Schema()
		if err != nil {
			t.Fatal(err)
		}
		if failed := checkStatePathMatchesConfigPath(t, spec.Platform(), w, schema); failed != 0 {
			t.Fatalf("%s: %d preset states failed to measure", spec.Name, failed)
		}
	}
}

// TestSharedStatePathFallbackMatchesConfigPath: the paper host does not
// support balanced affinity, so on a schema offering it those levels
// fall back from the level table to MeasureFull, and fail wherever the
// host gets work — identically, and charged identically, on both paths.
func TestSharedStatePathFallbackMatchesConfigPath(t *testing.T) {
	schema, err := space.NewSchema(space.SchemaSpec{
		HostThreads:      []int{2, 24, 48, 96},
		HostAffinities:   []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact, machine.AffinityBalanced},
		DeviceThreads:    []int{4, 60, 240},
		DeviceAffinities: []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact},
		Fractions:        []float64{0, 12.5, 37.5, 50, 99, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := offload.GenomeWorkload(dna.Human)
	if failed := checkStatePathMatchesConfigPath(t, offload.NewPlatform(), w, schema); failed == 0 {
		t.Fatal("no state failed; the balanced host levels must fail where the host gets work")
	}
}
