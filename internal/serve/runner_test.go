package serve

import (
	"path/filepath"
	"sync"
	"testing"

	"hetopt/internal/core"
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
