package offload

import (
	"fmt"
	"math"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

// sameMeasurement compares two measurement outcomes bit for bit, errors
// by message.
func sameMeasurement(a Measurement, aErr error, b Measurement, bErr error) bool {
	if (aErr == nil) != (bErr == nil) || (aErr != nil && aErr.Error() != bErr.Error()) {
		return false
	}
	bits := func(m Measurement) [4]uint64 {
		return [4]uint64{math.Float64bits(m.Times.Host), math.Float64bits(m.Times.Device),
			math.Float64bits(m.Energy.Host), math.Float64bits(m.Energy.Device)}
	}
	return bits(a) == bits(b)
}

// checkTable fails unless mt.Measure equals MeasureFull on every state
// of schema; served additionally requires the level table itself to
// serve every state.
func checkTable(t *testing.T, p *Platform, w Workload, schema *space.Schema, mt *MeasureTable, served bool) {
	t.Helper()
	for ord := 0; ord < schema.Size(); ord++ {
		idx, err := schema.Space().Unflatten(ord)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := schema.Config(idx)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := p.MeasureFull(w, cfg)
		got, err := mt.Measure(ord)
		if !sameMeasurement(got, err, want, wantErr) {
			t.Fatalf("%v: table %+v (%v), MeasureFull %+v (%v)", cfg, got, err, want, wantErr)
		}
		if _, ok := mt.MeasureByTable(ord); ok != served {
			t.Fatalf("%v: served by the table = %v, want %v", cfg, ok, served)
		}
	}
}

func tableSchema(t testing.TB) *space.Schema {
	t.Helper()
	sc, err := space.NewSchema(space.SchemaSpec{
		HostThreads:      []int{2, 24, 48, 96},
		HostAffinities:   []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact, machine.AffinityBalanced},
		DeviceThreads:    []int{4, 60, 240},
		DeviceAffinities: []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact},
		Fractions:        []float64{0, 12.5, 37.5, 50, 99, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestMeasureTableFollowsModelMutations: a table built on a model made
// from each kind of calibration change — a new noise seed, a host
// affinity bonus, a replaced SMT-gain slice, a trait-scaled rate input,
// and the constants the table reads from the model as it measures —
// answers exactly what that model's MeasureFull answers. Each state is
// measured twice through one run's draw cache (drawing, then replaying
// the draws). The paper host does not support balanced affinity, so
// those levels fail and their states fall back to MeasureFull (an error
// wherever the host gets work); 96 host threads oversubscribe its cores.
func TestMeasureTableFollowsModelMutations(t *testing.T) {
	w := GenomeWorkload(dna.Human)
	schema := tableSchema(t)
	for _, mut := range []struct {
		name  string
		apply func(c *perf.Calibration)
	}{
		{"none", func(*perf.Calibration) {}},
		{"noise-seed", func(c *perf.Calibration) { c.NoiseSeed++ }},
		{"host-compact-bonus", func(c *perf.Calibration) { c.HostCompactBonus = 1.2 }},
		{"device-smt-gain-slice", func(c *perf.Calibration) { c.DeviceSMTGain = []float64{1, 1.5, 1.9, 2.1} }},
		{"host-core-rate", func(c *perf.Calibration) { c.HostCoreRateMBs *= 1.5 }},
		{"bytes-per-byte", func(c *perf.Calibration) { c.BytesPerByte = 4 }},
		{"live-constants", func(c *perf.Calibration) {
			c.HostSetupSec, c.NoiseStdHost, c.DeviceIdleW, c.NoiseStdDevicePower = 0.5, 0, 80, 0.2
		}},
	} {
		t.Run(mut.name, func(t *testing.T) {
			cal := perf.DefaultCalibration()
			mut.apply(&cal)
			p := NewPlatformWithModel(perf.NewModel(machine.XeonE5Host(), machine.XeonPhi7120P(), cal))
			mt := p.NewMeasureTable(w, schema)
			d := mt.NewDraws()
			for pass := 0; pass < 2; pass++ {
				for ord := 0; ord < schema.Size(); ord++ {
					lv := mt.levelsOf(ord)
					cfg, err := schema.Config(lv[:])
					if err != nil {
						t.Fatal(err)
					}
					want, wantErr := p.MeasureFull(w, cfg)
					got, err := mt.MeasureLevels(lv, d)
					if !sameMeasurement(got, err, want, wantErr) {
						t.Fatalf("%v pass %d through the draw cache: %+v (%v), MeasureFull %+v (%v)", cfg, pass, got, err, want, wantErr)
					}
					served := cfg.HostAffinity != machine.AffinityBalanced
					if _, ok := mt.MeasureLevelsByTable(lv, d); ok != served {
						t.Fatalf("%v pass %d through the draw cache: served by the table = %v, want %v", cfg, pass, ok, served)
					}
				}
			}
		})
	}
}

// TestMeasureTableIgnoresOtherTablesDraws: a draw cache made by another
// table — here another workload's, whose draws differ — is never read;
// the measurement equals MeasureFull as if no cache were passed.
func TestMeasureTableIgnoresOtherTablesDraws(t *testing.T) {
	p := NewPlatform()
	schema := space.PaperSchema()
	human, mouse := GenomeWorkload(dna.Human), GenomeWorkload(dna.Mouse)
	mt, other := p.NewMeasureTable(human, schema), p.NewMeasureTable(mouse, schema)
	foreign := other.NewDraws()
	for ord := 0; ord < schema.Size(); ord += 97 {
		lv := mt.levelsOf(ord)
		cfg, err := schema.Config(lv[:])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := other.MeasureLevels(lv, foreign); err != nil { // fill the foreign cache
			t.Fatal(err)
		}
		want, wantErr := p.MeasureFull(human, cfg)
		got, err := mt.MeasureLevels(lv, foreign)
		if !sameMeasurement(got, err, want, wantErr) {
			t.Fatalf("%v with another table's draws: %+v (%v), MeasureFull %+v (%v)", cfg, got, err, want, wantErr)
		}
	}
}

// TestMeasureTableInvalidWorkload: a workload MeasureFull rejects is
// rejected identically, never served.
func TestMeasureTableInvalidWorkload(t *testing.T) {
	p := NewPlatform()
	schema := tableSchema(t)
	for _, w := range []Workload{{Name: "", SizeMB: 10}, {Name: "x", SizeMB: 0}} {
		checkTable(t, p, w, schema, p.NewMeasureTable(w, schema), false)
	}
	mt := p.NewMeasureTable(GenomeWorkload(dna.Human), schema)
	if _, err := mt.Measure(schema.Size()); err == nil {
		t.Fatal("an out-of-range ordinal must be rejected")
	}
}

// TestMeasureTableZeroAllocs: a served table measurement allocates
// nothing, drawing its noise afresh or through a draw cache, whether
// the cache draws or replays.
func TestMeasureTableZeroAllocs(t *testing.T) {
	p := NewPlatform()
	schema := space.PaperSchema()
	mt := p.NewMeasureTable(GenomeWorkload(dna.Human), schema)
	d := mt.NewDraws()
	ord := 0
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		ord = (ord + 7919) % schema.Size()
		m, err := mt.Measure(ord)
		if err != nil {
			t.Fatal(err)
		}
		drawn, err := mt.MeasureLevels(mt.levelsOf(ord), d)
		if err != nil {
			t.Fatal(err)
		}
		sink += m.E() + drawn.E()
	})
	if allocs != 0 {
		t.Fatalf("table measurement allocates %g allocs/op, want 0", allocs)
	}
	_ = sink
}

// FuzzMeasureTable: for any workload size, configuration and
// calibration perturbation, the table measures exactly what MeasureFull
// measures — directly, and through one draw cache twice (drawing, then
// replaying).
func FuzzMeasureTable(f *testing.F) {
	f.Add(1948.0, 12345, 1.0, 1.0, uint64(0))
	f.Add(0.37, 0, 0.5, 2.0, uint64(7))
	f.Add(8192.0, 19925, 3.0, 0.1, uint64(1<<40))
	schema := space.PaperSchema()
	f.Fuzz(func(t *testing.T, sizeMB float64, ord int, hostScale, devScale float64, seed uint64) {
		if !(sizeMB > 0 && sizeMB < 1e7) || !(hostScale > 0.01 && hostScale < 100) || !(devScale > 0.01 && devScale < 100) {
			t.Skip()
		}
		ord = int(uint(ord) % uint(schema.Size()))
		cal := perf.DefaultCalibration()
		cal.HostCoreRateMBs *= hostScale
		cal.DeviceCoreRateMBs *= devScale
		cal.OffloadLatencySec *= devScale
		cal.NoiseSeed ^= seed
		cal.NoiseStdHost *= devScale
		cal.NoiseStdDevice *= hostScale
		cal.NoiseStdHostPower *= hostScale
		cal.NoiseStdDevicePower *= devScale
		p := NewPlatformWithModel(perf.NewModel(machine.XeonE5Host(), machine.XeonPhi7120P(), cal))
		w := Workload{Name: fmt.Sprintf("fuzz-%d", seed%5), SizeMB: sizeMB, Complexity: hostScale, BytesPerByte: devScale}
		mt := p.NewMeasureTable(w, schema)
		idx := mt.levelsOf(ord)
		cfg, err := schema.Config(idx[:])
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := p.MeasureFull(w, cfg)
		got, err := mt.Measure(ord)
		if !sameMeasurement(got, err, want, wantErr) {
			t.Fatalf("%v: table %+v (%v), MeasureFull %+v (%v)", cfg, got, err, want, wantErr)
		}
		if _, ok := mt.MeasureByTable(ord); !ok {
			t.Fatalf("%v: a fresh table must serve every paper-schema state", cfg)
		}
		d := mt.NewDraws()
		for pass := 0; pass < 2; pass++ {
			got, ok := mt.MeasureLevelsByTable(idx, d)
			if !ok {
				t.Fatalf("%v pass %d: the table must serve through the draw cache", cfg, pass)
			}
			if !sameMeasurement(got, nil, want, wantErr) {
				t.Fatalf("%v pass %d through the draw cache: %+v, MeasureFull %+v (%v)", cfg, pass, got, want, wantErr)
			}
		}
	})
}
