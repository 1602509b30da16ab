package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDecodeOneBoundedValue: every submission endpoint takes a body
// holding exactly one JSON value of at most maxBodyBytes. Trailing
// whitespace is accepted; a second value, a stray closing bracket or a
// whitespace-only body is refused with 400, and a body past the limit
// with 413, each in the error envelope.
func TestDecodeOneBoundedValue(t *testing.T) {
	const self = "http://127.0.0.1:1"
	s, err := NewCluster(Options{Workers: 1, QueueSize: 64, Cluster: &ClusterOptions{NodeID: self, Peers: []string{self}}})
	if err != nil {
		t.Fatal(err)
	}
	s.runFn = instantRun
	t.Cleanup(func() { _ = s.Drain(context.Background()) })

	canon, err := TuneRequest{Method: "sam", Iterations: 40, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key := canon.Key()
	wire, err := json.Marshal(replicateWire{Key: key, Body: string(renderWarmBody(canon, key, TuneResult{Method: "SAM"}))})
	if err != nil {
		t.Fatal(err)
	}
	endpoints := []struct{ url, body string }{
		{"/v1/jobs", `{"method":"sam"}`},
		{"/v1/jobs:batch", `{"requests":[{"method":"sam"}]}`},
		{"/v1/cluster/replicate", string(wire)},
	}
	// pad fills body with leading spaces up to n bytes.
	pad := func(body string, n int) string { return strings.Repeat(" ", n-len(body)) + body }
	for _, ep := range endpoints {
		cases := []struct {
			name, body string
			want       int // 0: any 2xx
		}{
			{"one value", ep.body, 0},
			{"trailing newline", ep.body + "\n", 0},
			{"trailing whitespace", ep.body + " \t\r\n ", 0},
			{"at the limit", pad(ep.body, maxBodyBytes), 0},
			{"trailing word", ep.body + " trailing", http.StatusBadRequest},
			{"second value", ep.body + `{"method":"em"}`, http.StatusBadRequest},
			{"stray brace", ep.body + "}", http.StatusBadRequest},
			{"stray bracket", ep.body + "]", http.StatusBadRequest},
			{"whitespace only", " \n\t ", http.StatusBadRequest},
			{"one byte past the limit", pad(ep.body, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		}
		for _, tc := range cases {
			t.Run(ep.url+"/"+tc.name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.url, bytes.NewReader([]byte(tc.body))))
				if tc.want == 0 {
					if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
						t.Fatalf("status %d body %.200s, want 2xx", rec.Code, rec.Body.Bytes())
					}
					return
				}
				if rec.Code != tc.want {
					t.Fatalf("status %d body %.200s, want %d", rec.Code, rec.Body.Bytes(), tc.want)
				}
				var e errorJSON
				if err := decodeStrict(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
					t.Fatalf("%d body %q is not the error envelope (err %v)", rec.Code, rec.Body.Bytes(), err)
				}
			})
		}
	}
}
