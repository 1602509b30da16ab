package scenario

import (
	"strings"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/dna"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

// TestDNAResolutionBitIdentical: the registry path for a genome name
// produces exactly the workload the legacy path produces, field for
// field — the contract that keeps every DNA-on-paper result
// bit-identical through the scenario layer.
func TestDNAResolutionBitIdentical(t *testing.T) {
	for _, g := range dna.Genomes() {
		want := offload.GenomeWorkload(g)
		for _, name := range []string{g.Name, "dna:" + g.Name, strings.ToUpper(g.Name)} {
			got, err := ResolveWorkload(name)
			if err != nil {
				t.Fatalf("ResolveWorkload(%q): %v", name, err)
			}
			if got != want {
				t.Fatalf("ResolveWorkload(%q) = %+v, want %+v", name, got, want)
			}
		}
	}
	w, err := ResolveWorkload("dna")
	if err != nil || w != offload.GenomeWorkload(dna.Human) {
		t.Fatalf("bare family name must select the default preset (human): %+v, %v", w, err)
	}
}

// TestPaperPlatformBitIdentical: the registered paper platform measures
// exactly like the legacy constructor.
func TestPaperPlatformBitIdentical(t *testing.T) {
	spec, err := PlatformByName("paper")
	if err != nil {
		t.Fatal(err)
	}
	legacy := offload.NewPlatform()
	viaSpec := spec.Platform()
	w := offload.GenomeWorkload(dna.Human)
	for _, frac := range []float64{0, 60, 100} {
		cfg := space.Config{
			HostThreads: 24, HostAffinity: machine.AffinityScatter,
			DeviceThreads: 120, DeviceAffinity: machine.AffinityBalanced,
			HostFraction: frac,
		}
		a, err := legacy.MeasureFull(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := viaSpec.MeasureFull(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("%v: registry platform diverged: %+v vs %+v", cfg, a, b)
		}
	}
	schema, err := spec.Schema()
	if err != nil {
		t.Fatal(err)
	}
	if schema.Size() != space.PaperSchema().Size() {
		t.Fatalf("paper schema size %d, want %d", schema.Size(), space.PaperSchema().Size())
	}
}

// TestPaperTrainingPlanBitIdentical: the registry-derived plan for the
// DNA family on the paper platform equals core.PaperTrainingPlan, so
// lazily trained serving models stay bit-identical too.
func TestPaperTrainingPlanBitIdentical(t *testing.T) {
	spec, err := PlatformByName("paper")
	if err != nil {
		t.Fatal(err)
	}
	fam, err := FamilyByName("dna")
	if err != nil {
		t.Fatal(err)
	}
	got, want := spec.TrainingPlan(fam), core.PaperTrainingPlan()
	if len(got.Workloads) != len(want.Workloads) {
		t.Fatalf("workload count %d, want %d", len(got.Workloads), len(want.Workloads))
	}
	for i := range got.Workloads {
		if got.Workloads[i] != want.Workloads[i] {
			t.Fatalf("workload %d: %+v, want %+v", i, got.Workloads[i], want.Workloads[i])
		}
	}
	if len(got.Fractions) != len(want.Fractions) {
		t.Fatalf("fraction count %d, want %d", len(got.Fractions), len(want.Fractions))
	}
	for i := range got.Fractions {
		if got.Fractions[i] != want.Fractions[i] {
			t.Fatalf("fraction %d: %g, want %g", i, got.Fractions[i], want.Fractions[i])
		}
	}
	if got.HostExperiments() != want.HostExperiments() || got.DeviceExperiments() != want.DeviceExperiments() {
		t.Fatalf("experiment counts (%d,%d), want (%d,%d)",
			got.HostExperiments(), got.DeviceExperiments(), want.HostExperiments(), want.DeviceExperiments())
	}
}

// TestCatalogShape pins the acceptance floor: at least four families
// (three beyond dna) and at least three platforms (two beyond paper).
func TestCatalogShape(t *testing.T) {
	if n := len(Families()); n < 4 {
		t.Fatalf("catalog ships %d families, want >= 4", n)
	}
	if n := len(Platforms()); n < 3 {
		t.Fatalf("catalog ships %d platforms, want >= 3", n)
	}
	for _, want := range []string{"dna", "spmv", "stencil", "crypto"} {
		if _, err := FamilyByName(want); err != nil {
			t.Errorf("family %q missing: %v", want, err)
		}
	}
	for _, want := range []string{"paper", "gpu-like", "edge"} {
		if _, err := PlatformByName(want); err != nil {
			t.Errorf("platform %q missing: %v", want, err)
		}
	}
}

// TestWorkloadNamesRoundTrip: every name the registry advertises
// resolves, and canonicalization is idempotent.
func TestWorkloadNamesRoundTrip(t *testing.T) {
	for _, name := range WorkloadNames() {
		w, err := ResolveWorkload(name)
		if err != nil {
			t.Errorf("advertised workload %q does not resolve: %v", name, err)
			continue
		}
		if w.SizeMB <= 0 {
			t.Errorf("workload %q resolved to empty size: %+v", name, w)
		}
		canon, err := CanonicalWorkloadName(name)
		if err != nil {
			t.Errorf("canonicalizing %q: %v", name, err)
			continue
		}
		again, err := CanonicalWorkloadName(canon)
		if err != nil || again != canon {
			t.Errorf("canonical form %q not stable: %q, %v", canon, again, err)
		}
		cw, err := ResolveWorkload(canon)
		if err != nil || cw != w {
			t.Errorf("canonical %q resolves differently: %+v vs %+v (%v)", canon, cw, w, err)
		}
	}
	for _, name := range PlatformNames() {
		if _, err := PlatformByName(name); err != nil {
			t.Errorf("advertised platform %q does not resolve: %v", name, err)
		}
	}
}

// TestUnknownNameErrorsListRegistry: unknown-name errors enumerate the
// registered names, and the lists cannot go stale because they are
// built from the registries themselves.
func TestUnknownNameErrorsListRegistry(t *testing.T) {
	_, err := FamilyByName("nope-such-family")
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	for _, f := range Families() {
		if !strings.Contains(err.Error(), strings.ToLower(f.Name)) {
			t.Errorf("family error %q does not list %q", err, f.Name)
		}
	}
	_, err = PlatformByName("nope-such-platform")
	if err == nil {
		t.Fatal("unknown platform accepted")
	}
	for _, p := range Platforms() {
		if !strings.Contains(err.Error(), strings.ToLower(p.Name)) {
			t.Errorf("platform error %q does not list %q", err, p.Name)
		}
	}
	_, err = ResolveWorkload("totally-unknown")
	if err == nil {
		t.Fatal("unknown workload accepted")
	}
	for _, n := range WorkloadNames() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("workload error does not list %q:\n%s", n, err)
		}
	}
	// Genome errors list the genome registry (satellite: actionable
	// unknown-name errors everywhere).
	_, err = dna.GenomeByName("plankton")
	if err == nil {
		t.Fatal("unknown genome accepted")
	}
	for _, n := range dna.GenomeNames() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("genome error %q does not list %q", err, n)
		}
	}
}

// TestDidYouMeanSuggestion: a near-miss gets a concrete suggestion.
func TestDidYouMeanSuggestion(t *testing.T) {
	_, err := ResolveWorkload("spnv")
	if err == nil || !strings.Contains(err.Error(), `did you mean "spmv"`) {
		t.Fatalf("no did-you-mean for spnv: %v", err)
	}
	_, err = PlatformByName("papper")
	if err == nil || !strings.Contains(err.Error(), `did you mean "paper"`) {
		t.Fatalf("no did-you-mean for papper: %v", err)
	}
}

// TestRegistryRegistration exercises custom registration and the
// under-30-lines extension path documented in DESIGN.md.
func TestRegistryRegistration(t *testing.T) {
	r := NewRegistry()
	fam := Family{
		Name:         "blur",
		Description:  "image blur",
		Complexity:   0.7,
		BytesPerByte: 3,
		Presets:      []SizePreset{{Name: "hd", SizeMB: 128}},
	}
	if err := r.RegisterFamily(fam); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFamily(fam); err == nil {
		t.Fatal("duplicate family accepted")
	}
	if err := r.RegisterFamily(Family{Name: "bad"}); err == nil {
		t.Fatal("family without presets accepted")
	}
	if err := r.RegisterFamily(Family{Name: "with space", Presets: fam.Presets}); err == nil {
		t.Fatal("family name with space accepted")
	}
	spec := PaperPlatform()
	spec.Name = "lab"
	if err := r.RegisterPlatform(spec); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterPlatform(spec); err == nil {
		t.Fatal("duplicate platform accepted")
	}
	w, err := r.ResolveWorkload("blur:hd")
	if err != nil || w.SizeMB != 128 || w.Complexity != 0.7 || w.BytesPerByte != 3 {
		t.Fatalf("custom workload resolved wrong: %+v, %v", w, err)
	}
	if _, err := r.Platform("lab"); err != nil {
		t.Fatal(err)
	}
}

// TestAmbiguousPresetRejected: a bare preset name shared by two
// families must name both qualified forms instead of guessing.
func TestAmbiguousPresetRejected(t *testing.T) {
	r := NewRegistry()
	p := []SizePreset{{Name: "big", SizeMB: 10}}
	if err := r.RegisterFamily(Family{Name: "a", Presets: p}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFamily(Family{Name: "b", Presets: p}); err != nil {
		t.Fatal(err)
	}
	_, err := r.ResolveWorkload("big")
	if err == nil || !strings.Contains(err.Error(), "a:big") || !strings.Contains(err.Error(), "b:big") {
		t.Fatalf("ambiguous preset not reported with qualified names: %v", err)
	}
}

// TestNewModelParameterized: perf.NewModel wired from a spec honors the
// spec's calibration rather than any baked-in default.
func TestNewModelParameterized(t *testing.T) {
	spec, err := PlatformByName("gpu-like")
	if err != nil {
		t.Fatal(err)
	}
	m := spec.Model()
	if m.Calibration().OffloadLatencySec == perf.DefaultCalibration().OffloadLatencySec {
		t.Fatal("gpu-like model carries the paper offload latency; NewModel not parameterized")
	}
	if m.Host().Name == machine.XeonE5Host().Name {
		t.Fatal("gpu-like model carries the paper host")
	}
}
