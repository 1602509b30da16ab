package scenario

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/ml"
)

// trainPair fits the default-boost models (core.TrainOptions{}: 300
// rounds, depth 7, subsample 0.9) for one platform x family pair.
func trainPair(t *testing.T, ps PlatformSpec, fam Family) *core.Models {
	t.Helper()
	plan := ps.TrainingPlan(fam)
	host, err := core.GenerateHostData(ps.Platform(), plan)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := core.GenerateDeviceData(ps.Platform(), plan)
	if err != nil {
		t.Fatal(err)
	}
	models, err := core.TrainOnData(host, dev, core.TrainOptions{})
	if err != nil {
		t.Fatalf("%s/%s: %v", ps.Name, fam.Name, err)
	}
	return models
}

// writePredictionBits appends the exact bit pattern of every held-out
// prediction, host side first.
func writePredictionBits(w io.Writer, m *core.Models) {
	for _, r := range []core.SideReport{m.HostReport, m.DeviceReport} {
		for _, p := range r.Predictions {
			fmt.Fprintf(w, "%x", math.Float64bits(p))
		}
	}
}

// TestDefaultBoostModelGolden pins the default boosted-tree
// configuration bit for bit on one scenario pair: the held-out
// predictions of both sides, the tree node counts, and the serialized
// ensembles (every split feature, threshold and leaf value). Values
// were captured before the split search was rewritten; any drift means
// training no longer reproduces the same models.
func TestDefaultBoostModelGolden(t *testing.T) {
	ps, err := PlatformByName("edge")
	if err != nil {
		t.Fatal(err)
	}
	fam, err := FamilyByName("crypto")
	if err != nil {
		t.Fatal(err)
	}
	m := trainPair(t, ps, fam)

	preds := fnv.New64a()
	writePredictionBits(preds, m)
	var fp string
	for _, reg := range []ml.Regressor{m.Host, m.Device} {
		bt, ok := reg.(*ml.BoostedTrees)
		if !ok {
			t.Fatalf("default regressor is %T, want *ml.BoostedTrees", reg)
		}
		var buf bytes.Buffer
		if err := bt.Save(&buf); err != nil {
			t.Fatal(err)
		}
		model := fnv.New64a()
		model.Write(buf.Bytes())
		fp += fmt.Sprintf("trees=%d nodes=%d model=%016x|", bt.NumTrees(), bt.NumNodes(), model.Sum64())
	}
	fp += fmt.Sprintf("preds=%d/%d:%016x", len(m.HostReport.Predictions), len(m.DeviceReport.Predictions), preds.Sum64())

	const golden = "trees=300 nodes=20086 model=b1faae6c8d66e992|trees=300 nodes=19754 model=a5210ee74773544b|preds=720/900:777f67f2f695f963"
	if fp != golden {
		t.Errorf("default-boost models drifted:\n got  %s\n want %s", fp, golden)
	}
}

// TestAllPairsModelDigest trains the default models of every platform x
// divisible family in registry order and folds all held-out predictions
// into one FNV-64a digest. It is the whole-catalog form of the golden
// above and takes seconds, so -short and race runs skip it.
func TestAllPairsModelDigest(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("trains every (platform, family) model")
	}
	h := fnv.New64a()
	for _, ps := range Platforms() {
		for _, fam := range Families() {
			if fam.IsDAG() {
				continue
			}
			writePredictionBits(h, trainPair(t, ps, fam))
		}
	}
	if got, want := fmt.Sprintf("%016x", h.Sum64()), "f724ea07cd6ebdb7"; got != want {
		t.Errorf("all-pairs prediction digest = %s, want %s", got, want)
	}
}
