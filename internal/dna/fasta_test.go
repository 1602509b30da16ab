package dna

import (
	"bytes"
	"strings"
	"testing"
)

func TestFASTARoundTrip(t *testing.T) {
	seq := NewGenerator(Human, 3).Generate(500)
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, "synthetic human chr1", seq); err != nil {
		t.Fatal(err)
	}
	records, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 {
		t.Fatalf("records = %d, want 1", len(records))
	}
	if records[0].Header != "synthetic human chr1" {
		t.Fatalf("header = %q", records[0].Header)
	}
	if !bytes.Equal(records[0].Seq, seq) {
		t.Fatal("sequence does not round-trip")
	}
}

func TestFASTALineWidth(t *testing.T) {
	seq := NewGenerator(Human, 3).Generate(200)
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, "x", seq); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i, l := range lines[1 : len(lines)-1] { // all full lines
		if len(l) != 70 {
			t.Fatalf("line %d has width %d, want 70", i+1, len(l))
		}
	}
}

func TestFASTAEmptySequence(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, "empty", nil); err != nil {
		t.Fatal(err)
	}
	records, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || len(records[0].Seq) != 0 {
		t.Fatalf("unexpected records %+v", records)
	}
}

func TestFASTAMultipleRecords(t *testing.T) {
	input := ">a\nACGT\nACGT\n>b\nTTTT\n"
	records, err := ReadFASTA(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("records = %d, want 2", len(records))
	}
	if string(records[0].Seq) != "ACGTACGT" || string(records[1].Seq) != "TTTT" {
		t.Fatalf("sequences = %q, %q", records[0].Seq, records[1].Seq)
	}
}

func TestFASTAAcceptsIUPAC(t *testing.T) {
	records, err := ReadFASTA(strings.NewReader(">x\nACGTN\nRYKM\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(records[0].Seq) != "ACGTNRYKM" {
		t.Fatalf("seq = %q", records[0].Seq)
	}
}

func TestFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("")); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := ReadFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("sequence before header should fail")
	}
	if _, err := ReadFASTA(strings.NewReader(">x\nAC!T\n")); err == nil {
		t.Error("invalid byte should fail")
	}
}

// TestStreamFASTAMatchesWriteFASTA: streaming a generator's bases chunk
// by chunk writes exactly the bytes WriteFASTA writes for the whole
// sequence, at every length around a line and a chunk boundary, with
// and without a planted motif (whose occurrences can straddle chunks).
func TestStreamFASTAMatchesWriteFASTA(t *testing.T) {
	planted, err := NewGenerator(Human, 7).WithPlantedMotif("GAATTC", 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*Generator{NewGenerator(Cat, 7), planted} {
		for _, n := range []int{0, 1, 69, 70, 71, fastaChunk - 1, fastaChunk, fastaChunk + 1, 2*fastaChunk + 35} {
			var want, got bytes.Buffer
			if err := WriteFASTA(&want, "h", g.Generate(n)); err != nil {
				t.Fatal(err)
			}
			if err := StreamFASTA(&got, "h", n, g.GenerateAt); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d planted=%v: streamed record differs from WriteFASTA's", n, g == planted)
			}
		}
	}
}
