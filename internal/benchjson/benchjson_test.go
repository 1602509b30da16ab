package benchjson

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func record(name string, ns float64, allocs, bytes int64) Record {
	return Record{Name: name, NsPerOp: ns, AllocsPerOp: allocs, BytesPerOp: bytes}
}

func TestWriteReadRoundtrip(t *testing.T) {
	f := File{Schema: 1, GoVersion: "go1.23", GOOS: "linux", GOARCH: "amd64",
		Benchmarks: []Record{record("a", 123.5, 4, 96)}}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Benchmarks) != 1 || got.Benchmarks[0] != f.Benchmarks[0] {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatal("missing trailing newline")
	}
}

func TestReadFileRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"schema":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("want schema error")
	}
}

func TestComparePasses(t *testing.T) {
	old := File{Benchmarks: []Record{record("a", 100, 10, 80), record("zero", 50, 0, 0)}}
	cur := File{Benchmarks: []Record{
		record("a", 105, 10, 80),       // within 10%
		record("zero", 54, 0, 0),       // still allocation-free
		record("new-bench", 1, 99, 99), // additions are not regressions
	}}
	if p := Compare(old, cur, CompareOptions{NsTolerance: 0.10, AllocTolerance: 0.10}); len(p) != 0 {
		t.Fatalf("unexpected problems: %v", p)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := File{Benchmarks: []Record{record("a", 100, 10, 80), record("zero", 50, 0, 0), record("gone", 1, 1, 1)}}
	cur := File{Benchmarks: []Record{
		record("a", 150, 12, 120), // ns, allocs and bytes all regressed
		record("zero", 50, 1, 16), // zero-alloc contract broken
	}}
	p := Compare(old, cur, CompareOptions{NsTolerance: 0.10, AllocTolerance: 0.10})
	if len(p) != 6 {
		t.Fatalf("want 6 problems (3x a, 2x zero, 1x gone), got %d: %v", len(p), p)
	}
	joined := strings.Join(p, "\n")
	for _, want := range []string{"a: ns/op", "a: allocs/op", "a: B/op", "zero: allocs/op", "zero: B/op", "gone: tracked benchmark missing"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing %q in %v", want, p)
		}
	}
}

func TestCompareSkipNs(t *testing.T) {
	old := File{Benchmarks: []Record{record("a", 100, 10, 80)}}
	cur := File{Benchmarks: []Record{record("a", 1e9, 10, 80)}}
	if p := Compare(old, cur, CompareOptions{NsTolerance: 0.10, AllocTolerance: 0.10, SkipNs: true}); len(p) != 0 {
		t.Fatalf("skip-ns should ignore time: %v", p)
	}
}

// TestDefsRun smoke-tests the cheap tracked definitions end to end
// through testing.Benchmark (the expensive search benches are exercised
// by the repo's regular benchmarks; re-running them here would double
// CI time for no coverage).
func TestDefsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs benchmarks")
	}
	cheap := map[string]bool{"store-key": true, "measure-full": true, "cache-evaluate-hit": true, "memo-scattered-hit": true}
	var defs []Def
	for _, d := range Defs() {
		if cheap[d.Name] {
			defs = append(defs, d)
		}
	}
	if len(defs) != len(cheap) {
		t.Fatalf("tracked set lost a definition: %v", defs)
	}
	f := Run(defs)
	if f.Schema != 1 || len(f.Benchmarks) != len(defs) {
		t.Fatalf("bad record: %+v", f)
	}
	for _, r := range f.Benchmarks {
		if r.NsPerOp <= 0 {
			t.Fatalf("%s: non-positive ns/op %g", r.Name, r.NsPerOp)
		}
	}
	for _, r := range f.Benchmarks {
		if (r.Name == "cache-evaluate-hit" || r.Name == "memo-scattered-hit") && r.AllocsPerOp != 0 {
			t.Fatalf("%s allocates: %d allocs/op", r.Name, r.AllocsPerOp)
		}
	}
}

func TestDefNamesAreStable(t *testing.T) {
	want := []string{"em-enumeration", "sam-multichain", "measure-full",
		"predictor-evaluate-hit", "cache-evaluate-hit", "store-key", "model-training",
		"strategy-step-shared", "cold-divisible-job", "memo-scattered-hit", "cold-dag-job",
		"cold-saml-job"}
	defs := Defs()
	if len(defs) < len(want) {
		t.Fatalf("tracked set shrank: %d < %d", len(defs), len(want))
	}
	have := map[string]bool{}
	for _, d := range defs {
		have[d.Name] = true
	}
	for _, n := range want {
		if !have[n] {
			t.Fatalf("tracked benchmark %q missing (renaming breaks the perf trajectory)", n)
		}
	}
}
