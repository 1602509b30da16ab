package space

import (
	"strings"
	"testing"

	"hetopt/internal/machine"
)

func TestPaperSpecSize(t *testing.T) {
	sc, err := NewSchema(PaperSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Section IV-C: "19926 experiments were required when we used
	// enumeration".
	if got := sc.Size(); got != 19926 {
		t.Fatalf("paper space size = %d, want 19926", got)
	}
}

func TestTable1SpecSize(t *testing.T) {
	sc, err := NewSchema(Table1Spec())
	if err != nil {
		t.Fatal(err)
	}
	// 7 host threads x 3 x 9 x 3 x 101 fractions.
	if got := sc.Size(); got != 7*3*9*3*101 {
		t.Fatalf("table 1 space size = %d", got)
	}
}

func TestSchemaConfigRoundTrip(t *testing.T) {
	sc := PaperSchema()
	err := sc.Space().ForEach(func(idx []int) error {
		cfg, err := sc.Config(idx)
		if err != nil {
			return err
		}
		back, err := sc.Index(cfg)
		if err != nil {
			return err
		}
		for i := range idx {
			if back[i] != idx[i] {
				t.Fatalf("round trip failed at %v -> %+v -> %v", idx, cfg, back)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSchemaFractionComplement(t *testing.T) {
	sc := PaperSchema()
	idx, err := sc.Index(Config{
		HostThreads: 24, HostAffinity: machine.AffinityScatter,
		DeviceThreads: 120, DeviceAffinity: machine.AffinityBalanced,
		HostFraction: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := sc.Config(idx)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.DeviceFraction() != 40 {
		t.Fatalf("device fraction = %g, want 40", cfg.DeviceFraction())
	}
}

func TestSchemaIndexRejectsForeignValues(t *testing.T) {
	sc := PaperSchema()
	bad := []Config{
		{HostThreads: 7, HostAffinity: machine.AffinityScatter, DeviceThreads: 60, DeviceAffinity: machine.AffinityBalanced, HostFraction: 50},
		{HostThreads: 24, HostAffinity: machine.AffinityBalanced, DeviceThreads: 60, DeviceAffinity: machine.AffinityBalanced, HostFraction: 50},
		{HostThreads: 24, HostAffinity: machine.AffinityScatter, DeviceThreads: 61, DeviceAffinity: machine.AffinityBalanced, HostFraction: 50},
		{HostThreads: 24, HostAffinity: machine.AffinityScatter, DeviceThreads: 60, DeviceAffinity: machine.AffinityNone, HostFraction: 50},
		{HostThreads: 24, HostAffinity: machine.AffinityScatter, DeviceThreads: 60, DeviceAffinity: machine.AffinityBalanced, HostFraction: 51},
	}
	for i, cfg := range bad {
		if _, err := sc.Index(cfg); err == nil {
			t.Errorf("config %d (%v) should be rejected", i, cfg)
		}
	}
}

func TestSchemaSpecValidation(t *testing.T) {
	spec := PaperSpec()
	spec.Fractions = nil
	if _, err := NewSchema(spec); err == nil {
		t.Error("empty fractions should fail")
	}
	spec = PaperSpec()
	spec.Fractions = []float64{-1}
	if _, err := NewSchema(spec); err == nil {
		t.Error("negative fraction should fail")
	}
	spec = PaperSpec()
	spec.Fractions = []float64{101}
	if _, err := NewSchema(spec); err == nil {
		t.Error("fraction > 100 should fail")
	}
}

func TestConfigString(t *testing.T) {
	c := Config{HostThreads: 24, HostAffinity: machine.AffinityScatter, DeviceThreads: 120, DeviceAffinity: machine.AffinityBalanced, HostFraction: 60}
	s := c.String()
	for _, want := range []string{"60/40", "24T", "scatter", "120T", "balanced"} {
		if !strings.Contains(s, want) {
			t.Errorf("Config.String() = %q missing %q", s, want)
		}
	}
}

// TestSchemaLevelCounts: the paper schema's value lists have the
// paper's level counts.
func TestSchemaLevelCounts(t *testing.T) {
	v := PaperSchema().Values()
	for _, c := range []struct {
		name      string
		got, want int
	}{
		{"host thread levels", len(v.HostThreads), 6},
		{"host affinities", len(v.HostAffinities), 3},
		{"device thread levels", len(v.DeviceThreads), 9},
		{"device affinities", len(v.DeviceAffinities), 3},
		{"fraction grid values", len(v.Fractions), 41},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

// TestSchemaValuesShareLists: Values hands out the schema's own value
// lists — allocation-free, and capped so an append cannot write into
// the schema.
func TestSchemaValuesShareLists(t *testing.T) {
	sc := PaperSchema()
	v := sc.Values()
	if &v.HostThreads[0] != &sc.hostThreads[0] || &v.Fractions[0] != &sc.fractions[0] {
		t.Fatal("Values copied the schema's lists")
	}
	for _, n := range []int{cap(v.HostThreads) - len(v.HostThreads), cap(v.HostAffinities) - len(v.HostAffinities),
		cap(v.DeviceThreads) - len(v.DeviceThreads), cap(v.DeviceAffinities) - len(v.DeviceAffinities), cap(v.Fractions) - len(v.Fractions)} {
		if n != 0 {
			t.Fatalf("Values leaves %d spare capacity on a list", n)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { v = sc.Values() }); allocs != 0 {
		t.Fatalf("Values allocates %g allocs/op, want 0", allocs)
	}
}
