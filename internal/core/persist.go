package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"hetopt/internal/ml"
)

// Model persistence implements the off-line learning usage the paper
// describes (train once, reuse the predictor for new inputs): a trained
// Models bundle round-trips through an opaque binary file. Only
// boosted-tree models persist — the linear/Poisson baselines retrain in
// milliseconds.

// persistedModels is the single serialized message. The ensembles are
// nested as pre-encoded blobs: gob decoders buffer ahead on plain readers
// (files), so the whole bundle must be one message.
type persistedModels struct {
	Kind       RegressorKind
	HostNorm   ml.Normalizer
	DeviceNorm ml.Normalizer
	HostEval   savedEval
	DeviceEval savedEval
	HostModel  []byte
	DevModel   []byte
}

// savedEval keeps the headline accuracy with the model so reports survive
// a reload (the per-sample test data does not persist).
type savedEval struct {
	N                                   int
	MeanAbsoluteError, MeanPercentError float64
	RMSE, R2                            float64
}

func toSavedEval(e ml.Evaluation) savedEval {
	return savedEval{N: e.N, MeanAbsoluteError: e.MeanAbsoluteError, MeanPercentError: e.MeanPercentError, RMSE: e.RMSE, R2: e.R2}
}

func fromSavedEval(s savedEval) ml.Evaluation {
	return ml.Evaluation{N: s.N, MeanAbsoluteError: s.MeanAbsoluteError, MeanPercentError: s.MeanPercentError, RMSE: s.RMSE, R2: s.R2}
}

// Save writes the trained models to w. Only BoostedTrees models are
// supported.
func (m *Models) Save(w io.Writer) error {
	host, ok := m.Host.(*ml.BoostedTrees)
	if !ok {
		return fmt.Errorf("core: only boosted-tree models persist (host is %T)", m.Host)
	}
	device, ok := m.Device.(*ml.BoostedTrees)
	if !ok {
		return fmt.Errorf("core: only boosted-tree models persist (device is %T)", m.Device)
	}
	if m.HostNorm == nil || m.DeviceNorm == nil {
		return fmt.Errorf("core: models missing normalizers")
	}
	var hostBlob, devBlob bytes.Buffer
	if err := host.Save(&hostBlob); err != nil {
		return err
	}
	if err := device.Save(&devBlob); err != nil {
		return err
	}
	header := persistedModels{
		Kind:       m.Kind,
		HostNorm:   *m.HostNorm,
		DeviceNorm: *m.DeviceNorm,
		HostEval:   toSavedEval(m.HostReport.Eval),
		DeviceEval: toSavedEval(m.DeviceReport.Eval),
		HostModel:  hostBlob.Bytes(),
		DevModel:   devBlob.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(header); err != nil {
		return fmt.Errorf("core: saving models: %w", err)
	}
	return nil
}

// LoadModels reads a bundle written by Save. The restored reports carry
// the headline accuracy numbers but no per-sample test data.
func LoadModels(r io.Reader) (*Models, error) {
	var header persistedModels
	if err := gob.NewDecoder(r).Decode(&header); err != nil {
		return nil, fmt.Errorf("core: loading models: %w", err)
	}
	if header.Kind != BoostedTrees {
		return nil, fmt.Errorf("core: persisted kind %v unsupported", header.Kind)
	}
	host, err := ml.LoadBoostedTrees(bytes.NewReader(header.HostModel))
	if err != nil {
		return nil, fmt.Errorf("core: host model: %w", err)
	}
	device, err := ml.LoadBoostedTrees(bytes.NewReader(header.DevModel))
	if err != nil {
		return nil, fmt.Errorf("core: device model: %w", err)
	}
	// Predictions index the normalized feature vector by split feature,
	// so both must fit the numFeatures-wide encoding.
	for _, side := range []struct {
		name  string
		norm  ml.Normalizer
		model *ml.BoostedTrees
	}{{"host", header.HostNorm, host}, {"device", header.DeviceNorm, device}} {
		if len(side.norm.Min) != numFeatures || len(side.norm.Max) != numFeatures {
			return nil, fmt.Errorf("core: %s normalizer is %d/%d wide, want %d", side.name, len(side.norm.Min), len(side.norm.Max), numFeatures)
		}
		if f := side.model.MaxFeature(); f >= numFeatures {
			return nil, fmt.Errorf("core: %s model splits on feature %d of %d", side.name, f, numFeatures)
		}
	}
	hostNorm := header.HostNorm
	deviceNorm := header.DeviceNorm
	return &Models{
		Kind:         header.Kind,
		Host:         host,
		Device:       device,
		HostNorm:     &hostNorm,
		DeviceNorm:   &deviceNorm,
		HostReport:   SideReport{Eval: fromSavedEval(header.HostEval)},
		DeviceReport: SideReport{Eval: fromSavedEval(header.DeviceEval)},
	}, nil
}
