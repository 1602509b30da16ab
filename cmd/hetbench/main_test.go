package main

import (
	"bytes"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hetopt/internal/scenario"
)

// runReport runs hetbench at -repeats 1 -parallel 2 and returns what it
// wrote.
func runReport(t *testing.T, ablate, jsonMode bool, workload, platform string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "report")
	if err := run(out, ablate, 1, 1, jsonMode, 2, "auto", workload, platform, exactKnobs{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reportDigest is the FNV-64a digest of a report cut at its trailing
// "report generated in" line, the only part that varies between runs.
func reportDigest(data []byte) uint64 {
	if i := bytes.LastIndex(data, []byte("\nreport generated in ")); i >= 0 {
		data = data[:i]
	}
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// checkDigest fails unless the report hashes to want. Any change to what
// hetbench prints, parallelism aside, moves the digest.
func checkDigest(t *testing.T, data []byte, want uint64) {
	t.Helper()
	if got := reportDigest(data); got != want {
		t.Errorf("report digest %#x, want %#x", got, want)
	}
}

// TestRunWritesCompleteReport pins every text report hetbench prints
// by digest: the paper report, the other platforms, a task-graph
// workload and -ablate. The listed sections name what a digest
// mismatch may have lost.
func TestRunWritesCompleteReport(t *testing.T) {
	for _, tc := range []struct {
		name               string
		ablate             bool
		workload, platform string
		sections           []string
		want               uint64
	}{
		{name: "paper", want: 0xe973c40fa9941d29, sections: []string{
			"Table I", "Table II", "Table III",
			"Figure 2", "Figure 5", "Figure 6", "Figure 7", "Figure 8", "Figure 9",
			"Table IV", "Table V", "Table VI", "Table VII", "Table VIII", "Table IX",
			"Result 1/2", "Result 3", "Result 5",
			"Bi-objective", "energy",
		}},
		{name: "gpu-like", platform: "gpu-like", want: 0x8d25382b9e1b1e67},
		{name: "edge", platform: "edge", want: 0x85900c98ea8550e0},
		{name: "dag-fork-join", workload: "dag:fork-join", want: 0xe3939e9df894966},
		{name: "ablate", ablate: true, want: 0x145a4421eb49e7fe, sections: []string{"Ablation:", "Extension:"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.ablate && testing.Short() {
				t.Skip("the -ablate report takes ~2 s")
			}
			data := runReport(t, tc.ablate, false, tc.workload, tc.platform)
			checkDigest(t, data, tc.want)
			for _, want := range append(tc.sections, "report generated in") {
				if !bytes.Contains(data, []byte(want)) {
					t.Errorf("report missing %q", want)
				}
			}
		})
	}
}

func TestRunRejectsBadPath(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "missing", "report.txt"), false, 1, 1, false, 1, "auto", "", "", exactKnobs{}); err == nil {
		t.Fatal("uncreatable output path should fail")
	}
}

// TestRunRejectsBadFlags checks the flag-layer validation: out-of-range
// values fail fast with an error naming the flag instead of being
// silently clamped by the search engine.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run("", false, 0, 1, false, 1, "auto", "", "", exactKnobs{}); err == nil || !strings.Contains(err.Error(), "-repeats") {
		t.Errorf("repeats=0 should fail naming -repeats, got %v", err)
	}
	if err := run("", false, -3, 1, false, 1, "auto", "", "", exactKnobs{}); err == nil || !strings.Contains(err.Error(), "-repeats") {
		t.Errorf("negative repeats should fail naming -repeats, got %v", err)
	}
	if err := run("", false, 1, 1, false, -4, "auto", "", "", exactKnobs{}); err == nil || !strings.Contains(err.Error(), "-parallel") {
		t.Errorf("negative parallel should fail naming -parallel, got %v", err)
	}
	if err := run("", false, 1, 1, false, 1, "quantum", "", "", exactKnobs{}); err == nil || !strings.Contains(err.Error(), "-strategy") {
		t.Errorf("unknown strategy should fail naming -strategy, got %v", err)
	}
	// The exact-only knobs are rejected under any other strategy and
	// range-checked under exact.
	if err := validate(1, 0, "anneal", "", "", true, 0, 0); err == nil || !strings.Contains(err.Error(), "-strategy exact") {
		t.Errorf("-prove without -strategy exact should fail, got %v", err)
	}
	if err := validate(1, 0, "exact", "", "", false, -1, 0); err == nil || !strings.Contains(err.Error(), "-pool-size") {
		t.Errorf("negative pool size should fail naming -pool-size, got %v", err)
	}
	if err := validate(1, 0, "exact", "", "", false, 0, -0.5); err == nil || !strings.Contains(err.Error(), "-pool-gap") {
		t.Errorf("negative pool gap should fail naming -pool-gap, got %v", err)
	}
	if err := validate(1, 0, "exact", "", "", true, 4, 0.2); err != nil {
		t.Errorf("valid exact knobs rejected: %v", err)
	}
}

func TestRunJSONMode(t *testing.T) {
	data := runReport(t, false, true, "", "")
	checkDigest(t, data, 0xee4f27c8960826e5)
	if !strings.Contains(string(data), "\"space_size\": 19926") {
		t.Error("JSON report missing space size")
	}
	if !strings.Contains(string(data), "fig9_method_comparison") {
		t.Error("JSON report missing comparisons")
	}
}

// TestScenarioFlagsRoundTripRegistry: every registered scenario name is
// accepted by the -workload/-platform validation.
func TestScenarioFlagsRoundTripRegistry(t *testing.T) {
	for _, name := range scenario.Default().WorkloadNames() {
		if err := validate(1, 0, "auto", name, "", false, 0, 0); err != nil {
			t.Errorf("registered workload %q rejected: %v", name, err)
		}
	}
	for _, name := range scenario.Default().PlatformNames() {
		if err := validate(1, 0, "auto", "", name, false, 0, 0); err != nil {
			t.Errorf("registered platform %q rejected: %v", name, err)
		}
	}
	if err := validate(1, 0, "auto", "plankton", "", false, 0, 0); err == nil || !strings.Contains(err.Error(), "-workload") {
		t.Errorf("unknown workload error not actionable: %v", err)
	}
	if err := validate(1, 0, "auto", "", "mainframe", false, 0, 0); err == nil || !strings.Contains(err.Error(), "-platform") {
		t.Errorf("unknown platform error not actionable: %v", err)
	}
}
