package automata

import (
	"fmt"

	"hetopt/internal/dna"
)

// Match is one match event: the end position of an occurrence in the
// scanned text and the number of motifs ending there.
type Match struct {
	// End is the byte offset just past the last matched byte.
	End int64
	// Count is the match multiplicity at this position.
	Count uint32
}

// Scan streams text through the automaton and invokes fn for every
// position where at least one match ends. Returning false from fn stops
// the scan early. Scan returns the final automaton state, so consecutive
// sections can be chained exactly like CountFrom.
func (d *DFA) Scan(state int32, base int64, text []byte, fn func(Match) bool) int32 {
	next := d.Next
	start := d.Start
	for i, b := range text {
		code, ok := dna.EncodeByte(b)
		if !ok {
			state = start
			continue
		}
		state = next[state][code]
		if out := d.Out[state]; out > 0 {
			if !fn(Match{End: base + int64(i) + 1, Count: out}) {
				return state
			}
		}
	}
	return state
}

// CompileMotifsBothStrands builds an Aho-Corasick automaton matching each
// motif on both DNA strands: the motif itself and its reverse complement.
// Palindromic motifs (reverse complement equal to the motif, like EcoRI's
// GAATTC) are added once, so a palindromic site is counted once per
// position rather than twice.
func CompileMotifsBothStrands(motifs []dna.Motif) (*DFA, error) {
	var expanded []dna.Motif
	for _, m := range motifs {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		expanded = append(expanded, m)
		rc, err := dna.ReverseComplementPattern(m.Pattern)
		if err != nil {
			return nil, fmt.Errorf("automata: motif %q: %w", m.Name, err)
		}
		if rc == m.Pattern {
			continue // palindrome: one strand's automaton already covers both
		}
		expanded = append(expanded, dna.Motif{Name: m.Name + "(rc)", Pattern: rc})
	}
	return CompileMotifs(expanded)
}
