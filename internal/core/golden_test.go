package core

import (
	"fmt"
	"math"
	"testing"

	"hetopt/internal/dna"
	"hetopt/internal/offload"
	"hetopt/internal/space"
)

// fp64 renders a float64 by its exact bit pattern so golden comparisons
// assert bit-identity, not formatted approximations.
func fp64(x float64) string { return fmt.Sprintf("%016x", math.Float64bits(x)) }

// resultFingerprint folds every numeric field of a Result into one
// comparable string.
func resultFingerprint(r Result) string {
	return fmt.Sprintf("%v|%v|%s|%s|%s|%s|%s|%s|%s|%d|%d",
		r.Method, r.Config, fp64(r.SearchE),
		fp64(r.Measured.Host), fp64(r.Measured.Device),
		fp64(r.MeasuredEnergy.Host), fp64(r.MeasuredEnergy.Device),
		r.Objective, fp64(r.MeasuredObjective),
		r.SearchEvaluations, r.Experiments)
}

// TestDNAPaperPlatformGolden pins the DNA-on-paper-platform results of
// all four methods to golden values captured before the scenario-layer
// refactor. Any change to these fingerprints means the refactor altered
// the semantics of the paper reproduction, which is forbidden: scenario
// plumbing must leave the default scenario bit-identical.
func TestDNAPaperPlatformGolden(t *testing.T) {
	platform := offload.NewPlatform()
	w := offload.GenomeWorkload(dna.Human)
	models := testModels(t, platform)
	pred, err := NewPredictor(models, w, platform.Model())
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{
		Schema:    space.PaperSchema(),
		Measurer:  NewMeasurer(platform, w),
		Predictor: pred,
	}
	golden := map[Method]string{
		EM:   "EM|60/40 host(48T,compact) device(240T,balanced)|3fd77e3deaee3406|3fd77e3deaee3406|3fd73951bea1a10c|4051d6e9c34f1a83|405b2bb347afbc99|time|3fd77e3deaee3406|19926|19927",
		EML:  "EML|57.5/42.5 host(48T,scatter) device(180T,balanced)|3fd9962596f6f7ed|3fd8867e1c6f80aa|3fd8d90bcb4be539|405341a14f91ae69|405c10e1947f0e22|time|3fd8d90bcb4be539|19926|1",
		SAM:  "SAM|60/40 host(48T,compact) device(240T,balanced)|3fd77e3deaee3406|3fd77e3deaee3406|3fd73951bea1a10c|4051d6e9c34f1a83|405b2bb347afbc99|time|3fd77e3deaee3406|301|302",
		SAML: "SAML|50/50 host(24T,none) device(240T,compact)|3fda38ced2e9e58d|3fdcaa50d81e25f3|3fdb88e305d6f187|40555dca2bd940df|4060bac5466757aa|time|3fdcaa50d81e25f3|301|1",
	}
	for _, m := range []Method{EM, EML, SAM, SAML} {
		res, err := Run(m, inst, Options{Iterations: 300, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if got := resultFingerprint(res); got != golden[m] {
			t.Errorf("%v diverged from the pre-scenario-layer golden:\n got  %s\n want %s", m, got, golden[m])
		}
	}
}
