package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hetopt/internal/dna"
)

func TestRunWritesValidFASTA(t *testing.T) {
	out := filepath.Join(t.TempDir(), "seq.fa")
	if err := run("cat", 0.01, 7, out, "", 0); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := dna.ReadFASTA(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("records = %d", len(records))
	}
	if !strings.Contains(records[0].Header, "cat") {
		t.Errorf("header = %q", records[0].Header)
	}
	sizeMB := 0.01
	wantLen := int(sizeMB * (1 << 20))
	if len(records[0].Seq) != wantLen {
		t.Fatalf("sequence length = %d, want %d", len(records[0].Seq), wantLen)
	}
}

func TestRunPlantsMotif(t *testing.T) {
	out := filepath.Join(t.TempDir(), "seq.fa")
	if err := run("human", 0.05, 7, out, "GAATTC", 1024); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// The raw FASTA wraps lines, so strip newlines before searching.
	flat := strings.ReplaceAll(string(data), "\n", "")
	if !strings.Contains(flat, "GAATTC") {
		t.Error("planted motif not found in output")
	}
}

func TestRunValidation(t *testing.T) {
	if err := run("unicorn", 1, 7, "", "", 0); err == nil {
		t.Error("unknown genome should fail")
	}
	if err := run("human", 0, 7, "", "", 0); err == nil {
		t.Error("zero size should fail")
	}
	if err := run("human", 0.01, 7, "", "ACGT", 2); err == nil {
		t.Error("tiny plant interval should fail")
	}
}

// TestRunRejectsUnallocatableSizes: a size that is not finite, or whose
// base count does not fit in a positive int, fails before the sequence
// is allocated instead of panicking in makeslice.
func TestRunRejectsUnallocatableSizes(t *testing.T) {
	out := filepath.Join(t.TempDir(), "seq.fa")
	for _, size := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e13, -1, 1e-9} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run("human", size, 7, out, "", 0)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "size") {
			t.Errorf("size %g: err = %v, want a size error", size, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("size %g: allocated %d bytes before rejecting it", size, grew)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("size %g: output file created (stat err %v)", size, err)
		}
	}
}

// TestRunMatchesInMemoryRecord: the streamed record equals the one
// written from the whole generated sequence, with and without a planted
// motif, at a size that is no multiple of the line or chunk width.
func TestRunMatchesInMemoryRecord(t *testing.T) {
	sizeMB := 0.3
	n := int(sizeMB * (1 << 20))
	for _, plant := range []string{"", "GAATTC"} {
		out := filepath.Join(t.TempDir(), "seq.fa")
		if err := run("dog", sizeMB, 11, out, plant, 1024); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		gen := dna.NewGenerator(dna.Dog, 11)
		if plant != "" {
			if _, err := gen.WithPlantedMotif(plant, 1024); err != nil {
				t.Fatal(err)
			}
		}
		var want bytes.Buffer
		header := fmt.Sprintf("synthetic %s GC=%.2f seed=%d size=%d", dna.Dog.Name, dna.Dog.GC, 11, n)
		if err := dna.WriteFASTA(&want, header, gen.Generate(n)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("plant %q: dnagen output differs from the in-memory record", plant)
		}
	}
}

// TestRunStreamsInFixedMemory: a 32 MiB record allocates under a bound
// that does not depend on the size, as the sequence is never held whole.
func TestRunStreamsInFixedMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := run("human", 32, 7, os.DevNull, "", 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("-size 32 allocated %d bytes, want under 1 MiB", grew)
	}
}
