package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkStoreHit measures the warm-start fast path: a completed
// entry served straight from the store.
func BenchmarkStoreHit(b *testing.B) {
	b.ReportAllocs()
	s := NewStore(0)
	if _, err, _ := s.Do("k", render(TuneResult{TimeSec: 1})); err != nil {
		b.Fatal(err)
	}
	key := []byte("k")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.PeekWarm(key); !ok {
			b.Fatal("hit missed")
		}
	}
}

// BenchmarkServeWarmStart measures the full HTTP round trip of a
// cached submission: canonicalize, store hit, respond with the result.
func BenchmarkServeWarmStart(b *testing.B) {
	b.ReportAllocs()
	s := New(Options{Workers: 1, QueueSize: 4})
	s.runFn = func(req TuneRequest) (TuneResult, error) { return TuneResult{Method: req.Method}, nil }
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := []byte(`{"method":"sam","iterations":100,"seed":1}`)
	warm := func() JobStatus {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Fatal(err)
		}
		return st
	}
	first := warm()
	if first.State != JobDone && first.State != JobQueued && first.State != JobRunning {
		b.Fatalf("unexpected first state %s", first.State)
	}
	// Ensure the store entry is completed before timing hits.
	for i := 0; ; i++ {
		if st := warm(); st.State == JobDone {
			break
		}
		if i > 1_000_000 {
			b.Fatal("job never completed")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := warm(); !st.Cached || st.State != JobDone {
			b.Fatalf("iteration %d not served from the store: %+v", i, st)
		}
	}
}

// BenchmarkCanonicalKey measures request normalization and keying.
func BenchmarkCanonicalKey(b *testing.B) {
	b.ReportAllocs()
	req := TuneRequest{Genome: "human", Method: "sam", Iterations: 500, Seed: 7}
	for i := 0; i < b.N; i++ {
		n, err := req.Normalize()
		if err != nil {
			b.Fatal(err)
		}
		if n.Key() == "" {
			b.Fatal("empty key")
		}
	}
}
