package serve

import (
	"encoding/json"
	"path/filepath"
	"sync"
	"testing"

	"hetopt/internal/core"
	"hetopt/internal/scenario"
)

// TestRunnerModelsConcurrent: concurrent Models calls, one of them
// backed by a model file, and SAML runs on the same pair train the pair
// once and share it; the file written meanwhile loads into a fresh
// Runner.
func TestRunnerModelsConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	req, err := TuneRequest{Method: "saml", Iterations: 50, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cache := filepath.Join(t.TempDir(), "models.gob")
	r := NewRunner(nil, nil)
	models := make([]*core.Models, 4)
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := ""
			if i == 0 {
				path = cache
			}
			m, _, err := r.Models(req, path)
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = m
			if _, err := r.Run(req, 2); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, m := range models {
		if m != models[0] {
			t.Fatalf("caller %d got a second model pair", i)
		}
	}
	if _, loaded, err := NewRunner(nil, nil).Models(req, cache); err != nil || !loaded {
		t.Fatalf("model file not loaded by a fresh runner: loaded=%v err=%v", loaded, err)
	}
}

// TestRunnerSharesDAGSim: a Runner builds one graph simulator per
// (platform, DAG preset) and every placement on the preset shares it.
// On every platform x DAG preset, each placement search renders the
// same bytes on a Runner that already built the preset's simulator as
// on a fresh Runner; and eight goroutines racing on a fresh Runner's
// first use of one preset all render those bytes too.
func TestRunnerSharesDAGSim(t *testing.T) {
	searches := []TuneRequest{
		{Method: "em"},
		{Method: "sam", Iterations: 200, Restarts: 2},
		{Method: "em", Strategy: "exact", Prove: true, PoolSize: 4},
		{Method: "sam", Strategy: "genetic", Iterations: 200},
		{Method: "sam", Strategy: "portfolio", Iterations: 200},
	}
	render := func(r *Runner, req TuneRequest) string {
		res, err := r.Run(req, 1)
		if err != nil {
			t.Error(err)
			return ""
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
		}
		return string(b)
	}
	warm := NewRunner(nil, nil)
	for _, platform := range scenario.PlatformNames() {
		for _, fam := range scenario.Families() {
			if !fam.IsDAG() {
				continue
			}
			for _, preset := range fam.Presets {
				var reqs []TuneRequest
				for i, s := range searches {
					s.Workload, s.Platform, s.Seed = preset.Qualified(fam), platform, int64(i+1)
					req, err := s.Normalize()
					if err != nil {
						t.Fatal(err)
					}
					reqs = append(reqs, req)
				}
				render(warm, reqs[len(reqs)-1]) // builds the preset's simulator
				for _, req := range reqs {
					if got, want := render(warm, req), render(NewRunner(nil, nil), req); got != want {
						t.Fatalf("%s: shared simulator renders\n%s\nfresh one\n%s", req.Key(), got, want)
					}
				}

				req := reqs[1]
				want := render(NewRunner(nil, nil), req)
				racing := NewRunner(nil, nil)
				got := make([]string, 8)
				var wg sync.WaitGroup
				for i := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i] = render(racing, req)
					}()
				}
				wg.Wait()
				for i, g := range got {
					if g != want {
						t.Fatalf("%s: racing caller %d renders\n%s\nwant\n%s", req.Key(), i, g, want)
					}
				}
			}
		}
	}
}
