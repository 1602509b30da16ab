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
// of schema at the given trials; served additionally requires the level
// table itself to serve every state.
func checkTable(t *testing.T, p *Platform, w Workload, schema *space.Schema, mt *MeasureTable, served bool, trials ...int) {
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
		for _, trial := range trials {
			want, wantErr := p.MeasureFull(w, cfg, trial)
			got, err := mt.Measure(ord, trial)
			if !sameMeasurement(got, err, want, wantErr) {
				t.Fatalf("%v trial %d: table %+v (%v), MeasureFull %+v (%v)", cfg, trial, got, err, want, wantErr)
			}
			if _, ok := mt.MeasureByTable(ord, trial); ok != served {
				t.Fatalf("%v trial %d: served by the table = %v, want %v", cfg, trial, ok, served)
			}
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

// TestMeasureTableFollowsModelMutations: the table answers exactly what
// MeasureFull answers after each kind of calibration change — a new
// noise seed, a fingerprinted constant, a replaced SMT-gain slice, a
// trait-scaled rate input, and constants the table reads live — falling
// back where what it derived went stale and serving where it did not.
// The paper host does not support balanced affinity, so those levels
// fail and their states fall back to MeasureFull (an error wherever the
// host gets work); 96 host threads oversubscribe its cores.
func TestMeasureTableFollowsModelMutations(t *testing.T) {
	w := GenomeWorkload(dna.Human)
	schema := tableSchema(t)
	for _, mut := range []struct {
		name  string
		stale bool
		apply func(c *perf.Calibration)
	}{
		{"none", false, func(*perf.Calibration) {}},
		{"noise-seed", true, func(c *perf.Calibration) { c.NoiseSeed++ }},
		{"host-compact-bonus", true, func(c *perf.Calibration) { c.HostCompactBonus = 1.2 }},
		{"device-smt-gain-slice", true, func(c *perf.Calibration) { c.DeviceSMTGain = []float64{1, 1.5, 1.9, 2.1} }},
		{"host-core-rate", true, func(c *perf.Calibration) { c.HostCoreRateMBs *= 1.5 }},
		{"bytes-per-byte", true, func(c *perf.Calibration) { c.BytesPerByte = 4 }},
		{"live-constants", false, func(c *perf.Calibration) {
			c.HostSetupSec, c.NoiseStdHost, c.DeviceIdleW, c.NoiseStdDevicePower = 0.5, 0, 80, 0.2
		}},
	} {
		t.Run(mut.name, func(t *testing.T) {
			p := NewPlatform()
			mt := p.NewMeasureTable(w, schema)
			mut.apply(&p.Model().Cal)
			for ord := 0; ord < schema.Size(); ord++ {
				idx := mt.levelsOf(ord)
				cfg, err := schema.Config(idx[:])
				if err != nil {
					t.Fatal(err)
				}
				for _, trial := range []int{0, 3} {
					want, wantErr := p.MeasureFull(w, cfg, trial)
					got, err := mt.Measure(ord, trial)
					if !sameMeasurement(got, err, want, wantErr) {
						t.Fatalf("%v trial %d: table %+v (%v), MeasureFull %+v (%v)", cfg, trial, got, err, want, wantErr)
					}
					_, served := mt.MeasureByTable(ord, trial)
					if wantServed := !mut.stale && cfg.HostAffinity != machine.AffinityBalanced; served != wantServed {
						t.Fatalf("%v: served by the table = %v, want %v", cfg, served, wantServed)
					}
				}
			}
		})
	}
}

// TestMeasureTableInvalidWorkload: a workload MeasureFull rejects is
// rejected identically, never served.
func TestMeasureTableInvalidWorkload(t *testing.T) {
	p := NewPlatform()
	schema := tableSchema(t)
	for _, w := range []Workload{{Name: "", SizeMB: 10}, {Name: "x", SizeMB: 0}} {
		checkTable(t, p, w, schema, p.NewMeasureTable(w, schema), false, 0)
	}
	mt := p.NewMeasureTable(GenomeWorkload(dna.Human), schema)
	if _, err := mt.Measure(schema.Size(), 0); err == nil {
		t.Fatal("an out-of-range ordinal must be rejected")
	}
}

// TestMeasureTableZeroAllocs: a served table measurement allocates
// nothing.
func TestMeasureTableZeroAllocs(t *testing.T) {
	p := NewPlatform()
	schema := space.PaperSchema()
	mt := p.NewMeasureTable(GenomeWorkload(dna.Human), schema)
	ord := 0
	var sink float64
	allocs := testing.AllocsPerRun(1000, func() {
		ord = (ord + 7919) % schema.Size()
		m, err := mt.Measure(ord, 1)
		if err != nil {
			t.Fatal(err)
		}
		sink += m.E()
	})
	if allocs != 0 {
		t.Fatalf("table measurement allocates %g allocs/op, want 0", allocs)
	}
	_ = sink
}

// FuzzMeasureTable: for any workload size, trial, configuration and
// calibration perturbation, the table measures exactly what MeasureFull
// measures.
func FuzzMeasureTable(f *testing.F) {
	f.Add(1948.0, 0, 12345, 1.0, 1.0, uint64(0))
	f.Add(0.37, 1, 0, 0.5, 2.0, uint64(7))
	f.Add(8192.0, 9, 19925, 3.0, 0.1, uint64(1<<40))
	schema := space.PaperSchema()
	f.Fuzz(func(t *testing.T, sizeMB float64, trial, ord int, hostScale, devScale float64, seed uint64) {
		if !(sizeMB > 0 && sizeMB < 1e7) || !(hostScale > 0.01 && hostScale < 100) || !(devScale > 0.01 && devScale < 100) {
			t.Skip()
		}
		ord = int(uint(ord) % uint(schema.Size()))
		p := NewPlatform()
		cal := &p.Model().Cal
		cal.HostCoreRateMBs *= hostScale
		cal.DeviceCoreRateMBs *= devScale
		cal.OffloadLatencySec *= devScale
		cal.NoiseSeed ^= seed
		w := Workload{Name: fmt.Sprintf("fuzz-%d", seed%5), SizeMB: sizeMB, Complexity: hostScale, BytesPerByte: devScale}
		mt := p.NewMeasureTable(w, schema)
		idx := mt.levelsOf(ord)
		cfg, err := schema.Config(idx[:])
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := p.MeasureFull(w, cfg, trial)
		got, err := mt.Measure(ord, trial)
		if !sameMeasurement(got, err, want, wantErr) {
			t.Fatalf("%v trial %d: table %+v (%v), MeasureFull %+v (%v)", cfg, trial, got, err, want, wantErr)
		}
		if _, ok := mt.MeasureByTable(ord, trial); !ok {
			t.Fatalf("%v: a fresh table must serve every paper-schema state", cfg)
		}
	})
}
