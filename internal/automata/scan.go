package automata

import "hetopt/internal/dna"

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
