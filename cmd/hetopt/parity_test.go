package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hetopt/internal/serve"
)

// TestCLIAnswersWhatServeAnswers: for each request, the result the CLI
// computes from its flags marshals to exactly the bytes of the result a
// ?wait=1 POST of the same fields gets from the service.
func TestCLIAnswersWhatServeAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains full models")
	}
	cases := []struct {
		name string
		mut  func(*params)
		body string
	}{
		{"SAM time", func(p *params) { p.method = "sam" },
			`{"genome":"human","method":"sam","iterations":300,"seed":3}`},
		{"SAML time", func(p *params) { p.parallel, p.restarts = 2, 2 },
			`{"genome":"human","method":"saml","iterations":300,"restarts":2,"seed":3}`},
		{"EML energy", func(p *params) { p.method, p.objective = "eml", "energy" },
			`{"genome":"human","method":"eml","objective":"energy","iterations":300,"seed":3}`},
		{"SAM weighted", func(p *params) { p.method, p.objective, p.alpha = "sam", "weighted", 0.3 },
			`{"genome":"human","method":"sam","objective":"weighted","alpha":0.3,"iterations":300,"seed":3}`},
		{"SAM bounded", func(p *params) { p.method, p.objective, p.slack = "sam", "bounded", 0.2 },
			`{"genome":"human","method":"sam","objective":"bounded","slack":0.2,"iterations":300,"seed":3}`},
		{"EM exact proof with pool", func(p *params) { p.method, p.strategy, p.prove, p.poolSize = "em", "exact", true, 3 },
			`{"genome":"human","method":"em","strategy":"exact","prove":true,"pool_size":3,"iterations":300,"seed":3}`},
		{"EM task graph", func(p *params) { p.genome, p.workload, p.method = "", "dag:fork-join", "em" },
			`{"workload":"dag:fork-join","method":"em","iterations":300,"seed":3}`},
	}
	srv := serve.New(serve.Options{Workers: 1, QueueSize: len(cases)})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			p.iterations, p.seed = 300, 3
			tc.mut(&p)
			got, err := tune(p, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			cli, err := json.Marshal(got[0])
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var st struct {
				State  serve.JobState  `json:"state"`
				Result json.RawMessage `json:"result"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			if st.State != serve.JobDone {
				t.Fatalf("served job ended %s", st.State)
			}
			if !bytes.Equal(cli, st.Result) {
				t.Fatalf("CLI and service differ:\n cli    %s\n served %s", cli, st.Result)
			}
		})
	}
}

// TestModelCacheKeyedByTrainPair: a -model-cache file trained for
// another (platform, family), or written without a train key, is
// retrained and rewritten instead of loaded, and a keyed file loads to
// the same answer fresh models give.
func TestModelCacheKeyedByTrainPair(t *testing.T) {
	if testing.Short() {
		t.Skip("trains full models")
	}
	cache := filepath.Join(t.TempDir(), "models.gob")
	run := func(p params, wantLoad bool) []byte {
		t.Helper()
		var out bytes.Buffer
		res, err := tune(p, &out)
		if err != nil {
			t.Fatal(err)
		}
		if loaded := strings.Contains(out.String(), "loaded prediction models"); loaded != wantLoad {
			t.Fatalf("-model-cache loaded %v, want %v:\n%s", loaded, wantLoad, out.String())
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	dna := base()
	dna.genome, dna.workload, dna.iterations, dna.modelCache = "", "dna", 200, cache
	run(dna, false)

	spmv := base()
	spmv.genome, spmv.workload, spmv.platform, spmv.iterations = "", "spmv", "gpu-like", 200
	fresh := run(spmv, false)
	spmv.modelCache = cache
	if got := run(spmv, false); !bytes.Equal(got, fresh) {
		t.Fatalf("paper/dna cache changed the gpu-like/spmv answer:\n got  %s\n want %s", got, fresh)
	}
	if got := run(spmv, true); !bytes.Equal(got, fresh) {
		t.Fatalf("loaded gpu-like/spmv models answer differently:\n got  %s\n want %s", got, fresh)
	}

	// A bare model bundle, as written before files carried their train
	// key, is never loaded — even for the pair it was trained on.
	req, err := spmv.request()
	if err != nil {
		t.Fatal(err)
	}
	models, _, err := serve.NewRunner(nil, nil).Models(req, "")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(cache)
	if err != nil {
		t.Fatal(err)
	}
	if err := models.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	run(spmv, false)
}
