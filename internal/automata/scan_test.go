package automata

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hetopt/internal/dna"
)

// scanAll collects every match event Scan reports over text from the
// start state.
func scanAll(d *DFA, text []byte) []Match {
	var out []Match
	d.Scan(d.Start, 0, text, func(m Match) bool {
		out = append(out, m)
		return true
	})
	return out
}

func TestFindAllPositions(t *testing.T) {
	d, err := CompileMotifs(motifs("ACG"))
	if err != nil {
		t.Fatal(err)
	}
	// ACG ends at 3; ACGACG ends at 3 and 6.
	matches := scanAll(d, []byte("ACGACG"))
	if len(matches) != 2 {
		t.Fatalf("matches = %v", matches)
	}
	if matches[0].End != 3 || matches[1].End != 6 {
		t.Fatalf("positions = %v, want ends 3 and 6", matches)
	}
	if matches[0].Count != 1 {
		t.Fatalf("count = %d", matches[0].Count)
	}
}

// TestFindAllLimit: returning false from the callback stops the scan,
// and the state Scan returns is the one after the stopping byte.
func TestFindAllLimit(t *testing.T) {
	d, err := CompileMotifs(motifs("AA"))
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("AAAAAAAA")
	calls := 0
	state := d.Scan(d.Start, 0, text, func(Match) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("limit ignored: %d matches", calls)
	}
	// The third AA ends at byte 4, so the scan stopped there.
	if _, want := d.CountFrom(d.Start, text[:4]); state != want {
		t.Fatalf("stopped in state %d, want %d", state, want)
	}
}

func TestFindAllMultiplicity(t *testing.T) {
	d, err := CompileMotifs(motifs("ACG", "CG"))
	if err != nil {
		t.Fatal(err)
	}
	matches := scanAll(d, []byte("ACG"))
	// Both ACG and CG end at position 3.
	if len(matches) != 1 || matches[0].Count != 2 {
		t.Fatalf("matches = %v, want one event of count 2", matches)
	}
}

func TestScanChainsAcrossSections(t *testing.T) {
	d, err := CompileMotifs(motifs("GAATTC"))
	if err != nil {
		t.Fatal(err)
	}
	text := []byte("TTGAATTCTT")
	var whole []Match
	d.Scan(d.Start, 0, text, func(m Match) bool { whole = append(whole, m); return true })

	var split []Match
	state := d.Scan(d.Start, 0, text[:5], func(m Match) bool { split = append(split, m); return true })
	d.Scan(state, 5, text[5:], func(m Match) bool { split = append(split, m); return true })
	if len(whole) != 1 || len(split) != 1 || whole[0] != split[0] {
		t.Fatalf("whole %v != split %v", whole, split)
	}
}

// Property: Scan events sum to CountMatches for random inputs.
func TestScanCountsAgreeProperty(t *testing.T) {
	d, err := CompileMotifs(dna.DefaultMotifs())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		text := randomDNA(rng, int(n))
		var total uint64
		d.Scan(d.Start, 0, text, func(m Match) bool {
			total += uint64(m.Count)
			return true
		})
		return total == d.CountMatches(text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
