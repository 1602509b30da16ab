package space_test

import (
	"math"
	"slices"
	"testing"

	"hetopt/internal/scenario"
	"hetopt/internal/space"
)

// shippedSchemas are the paper, gpu-like and edge platform schemas plus
// the full Table I space.
func shippedSchemas(t testing.TB) map[string]*space.Schema {
	t.Helper()
	out := map[string]*space.Schema{}
	for _, name := range []string{"paper", "gpu-like", "edge"} {
		spec, err := scenario.PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := spec.Schema()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = sc
	}
	sc, err := space.NewSchema(space.Table1Spec())
	if err != nil {
		t.Fatal(err)
	}
	out["table1"] = sc
	return out
}

// TestSchemaOrdinalMatchesFlatten: for every configuration of every
// shipped schema, Levels returns Index(cfg) and the ordinal
// Flatten(Index(cfg)).
func TestSchemaOrdinalMatchesFlatten(t *testing.T) {
	for name, sc := range shippedSchemas(t) {
		n := 0
		err := sc.Space().ForEach(func(idx []int) error {
			cfg, err := sc.Config(idx)
			if err != nil {
				return err
			}
			back, err := sc.Index(cfg)
			if err != nil {
				return err
			}
			want, err := sc.Space().Flatten(back)
			if err != nil {
				return err
			}
			if lv, ord, ok := sc.Levels(cfg); !ok || ord != want || !slices.Equal(lv[:], back) {
				t.Fatalf("%s: Levels(%v) = %v, %d, %v; want %v, %d", name, cfg, lv, ord, ok, back, want)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != sc.Size() {
			t.Fatalf("%s: visited %d of %d configurations", name, n, sc.Size())
		}
	}
}

// TestSchemaOrdinalRejectsOffGrid: a value that is not one of the
// schema's levels in any one field makes Levels fail, exactly when
// Index fails.
func TestSchemaOrdinalRejectsOffGrid(t *testing.T) {
	sc := space.PaperSchema()
	base, err := sc.Config([]int{3, 1, 8, 0, 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := sc.Levels(base); !ok {
		t.Fatalf("on-grid %v rejected", base)
	}
	offGrid := []func(c *space.Config){
		func(c *space.Config) { c.HostThreads = 5 },
		func(c *space.Config) { c.HostThreads = -2 },
		func(c *space.Config) { c.HostThreads = 1 << 20 },
		func(c *space.Config) { c.HostAffinity = 99 },
		func(c *space.Config) { c.DeviceThreads = 241 },
		func(c *space.Config) { c.DeviceAffinity = -1 },
		func(c *space.Config) { c.HostFraction = 61 },
		func(c *space.Config) { c.HostFraction = 60.000000000000007 },
		func(c *space.Config) { c.HostFraction = -2.5 },
		func(c *space.Config) { c.HostFraction = 102.5 },
		func(c *space.Config) { c.HostFraction = math.NaN() },
		func(c *space.Config) { c.HostFraction = math.Inf(1) },
	}
	for i, mutate := range offGrid {
		cfg := base
		mutate(&cfg)
		if _, ord, ok := sc.Levels(cfg); ok {
			t.Errorf("case %d: off-grid %v accepted as ordinal %d", i, cfg, ord)
		}
		if _, err := sc.Index(cfg); err == nil {
			t.Errorf("case %d: Index accepts %v, Levels must too", i, cfg)
		}
	}
	// Negative zero is the level 0 under ==, for Index and Levels alike.
	cfg := base
	cfg.HostFraction = math.Copysign(0, -1)
	if _, _, ok := sc.Levels(cfg); !ok {
		t.Error("-0 fraction rejected")
	}
}

// TestSchemaOrdinalOffTableGrid: value sets that fit no small integer
// grid take the map path and still agree with Flatten.
func TestSchemaOrdinalOffTableGrid(t *testing.T) {
	spec := space.PaperSpec()
	spec.HostThreads = []int{3, 100000}
	spec.Fractions = []float64{0, 1.0 / 3, 50, 99.99}
	sc, err := space.NewSchema(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = sc.Space().ForEach(func(idx []int) error {
		cfg, err := sc.Config(idx)
		if err != nil {
			return err
		}
		want, _ := sc.Space().Flatten(idx)
		if _, got, ok := sc.Levels(cfg); !ok || got != want {
			t.Fatalf("Levels(%v) = %d, %v; want %d", cfg, got, ok, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := sc.Levels(space.Config{HostThreads: 3, HostFraction: 1.0 / 4}); ok {
		t.Fatal("off-grid fraction accepted on the map path")
	}
}

func TestSchemaOrdinalZeroAllocs(t *testing.T) {
	sc := space.PaperSchema()
	cfg, err := sc.Config([]int{5, 2, 6, 1, 17})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, ok := sc.Levels(cfg); !ok {
			t.Fatal("rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("Levels allocates %g allocs/op, want 0", allocs)
	}
}

// FuzzSchemaOrdinal round-trips random index vectors of the Table I
// schema through Config, Levels and Unflatten.
func FuzzSchemaOrdinal(f *testing.F) {
	sc, err := space.NewSchema(space.Table1Spec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint8(6), uint8(2), uint8(8), uint8(2), uint8(100))
	f.Add(uint8(3), uint8(1), uint8(4), uint8(0), uint8(60))
	f.Fuzz(func(t *testing.T, a, b, c, d, e uint8) {
		idx := []int{int(a), int(b), int(c), int(d), int(e)}
		for i := range idx {
			idx[i] %= sc.Space().Params[i].Levels()
		}
		cfg, err := sc.Config(idx)
		if err != nil {
			t.Fatal(err)
		}
		_, ord, ok := sc.Levels(cfg)
		if !ok {
			t.Fatalf("Levels rejected %v", cfg)
		}
		back, err := sc.Space().Unflatten(ord)
		if err != nil {
			t.Fatal(err)
		}
		for i := range idx {
			if back[i] != idx[i] {
				t.Fatalf("%v -> %v -> %d -> %v", idx, cfg, ord, back)
			}
		}
	})
}

func BenchmarkSchemaOrdinal(b *testing.B) {
	sc := space.PaperSchema()
	cfg, err := sc.Config([]int{5, 2, 6, 1, 17})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok := sc.Levels(cfg); !ok {
			b.Fatal("rejected")
		}
	}
}
