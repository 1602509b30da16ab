package automata

import (
	"fmt"
	"strings"

	"hetopt/internal/dna"
)

// DFA is a deterministic finite automaton with a dense transition table
// over the 4-symbol base alphabet, the representation the matching engine
// streams through. The same type backs both determinized regex NFAs and
// Aho-Corasick automata.
type DFA struct {
	// Next holds the complete transition function: Next[s][b] is the
	// successor of state s on base code b.
	Next [][dna.AlphabetSize]int32
	// Out[s] is the match multiplicity of state s: how many matches end
	// when the automaton enters s. Determinized regexes use 0/1 (some
	// match ends here); Aho-Corasick uses the number of patterns ending
	// here.
	Out []uint32
	// Start is the initial state.
	Start int32
	// ContextLen, when positive, asserts that the automaton's state after
	// reading any text depends only on the last ContextLen symbols. This
	// holds for Aho-Corasick (bounded by the longest pattern) and for
	// determinized patterns without unbounded repetition; it enables the
	// exact warm-up parallel matching strategy. Zero means unknown or
	// unbounded.
	ContextLen int
}

// NumStates returns the number of DFA states.
func (d *DFA) NumStates() int { return len(d.Next) }

// Validate checks structural invariants: a complete transition table with
// in-range targets and a valid start state.
func (d *DFA) Validate() error {
	n := int32(d.NumStates())
	if n == 0 {
		return fmt.Errorf("automata: DFA has no states")
	}
	if d.Start < 0 || d.Start >= n {
		return fmt.Errorf("automata: DFA start state %d out of range [0,%d)", d.Start, n)
	}
	if len(d.Out) != int(n) {
		return fmt.Errorf("automata: DFA has %d states but %d output entries", n, len(d.Out))
	}
	for s, row := range d.Next {
		for b, t := range row {
			if t < 0 || t >= n {
				return fmt.Errorf("automata: transition (%d, %d) -> %d out of range", s, b, t)
			}
		}
	}
	return nil
}

// Step advances one encoded symbol.
func (d *DFA) Step(state int32, sym uint8) int32 {
	return d.Next[state][sym]
}

// CountMatches streams text through the automaton from the start state and
// returns the total match multiplicity (sum of Out over every position).
func (d *DFA) CountMatches(text []byte) uint64 {
	count, _ := d.CountFrom(d.Start, text)
	return count
}

// CountFrom streams text from an explicit state and returns the total
// multiplicity together with the final state. It is the primitive the
// parallel matching strategies build on.
func (d *DFA) CountFrom(state int32, text []byte) (uint64, int32) {
	var count uint64
	next := d.Next
	start := d.Start
	for _, b := range text {
		code, ok := dna.EncodeByte(b)
		if !ok {
			state = start
			continue
		}
		state = next[state][code]
		count += uint64(d.Out[state])
	}
	return count, state
}

// FinalState streams text from state and returns only the resulting state
// (no counting); used by warm-up phases.
func (d *DFA) FinalState(state int32, text []byte) int32 {
	next := d.Next
	start := d.Start
	for _, b := range text {
		code, ok := dna.EncodeByte(b)
		if !ok {
			state = start
			continue
		}
		state = next[state][code]
	}
	return state
}

// String renders a compact human-readable table for debugging.
func (d *DFA) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "DFA(%d states, start %d, ctx %d)\n", d.NumStates(), d.Start, d.ContextLen)
	for s, row := range d.Next {
		fmt.Fprintf(&sb, "  %3d out=%d:", s, d.Out[s])
		for b, t := range row {
			fmt.Fprintf(&sb, " %c->%d", dna.Letters[b], t)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CompilePattern compiles a motif pattern into a search DFA: the pattern
// is matched unanchored (at any position), determinized, and minimized.
// Patterns without unbounded repetition get an exact ContextLen, enabling
// warm-up parallel matching.
func CompilePattern(pattern string) (*DFA, error) {
	nfa, err := CompileNFA(pattern, true)
	if err != nil {
		return nil, err
	}
	d := Determinize(nfa)
	d = Minimize(d)
	if ml := nfa.MaxMatchLen(); ml > 0 {
		d.ContextLen = ml
	}
	return d, nil
}

// Determinize applies the subset construction to an NFA, producing a
// complete DFA whose Out marks accepting subsets with multiplicity 1.
func Determinize(n *NFA) *DFA {
	visited := make([]bool, n.NumStates())
	startSet := n.epsClosure([]int32{n.Start}, visited)

	type pending struct {
		id  int32
		set []int32
	}
	ids := map[string]int32{}
	key := func(set []int32) string {
		var sb strings.Builder
		for _, s := range set {
			fmt.Fprintf(&sb, "%d,", s)
		}
		return sb.String()
	}

	d := &DFA{}
	addState := func(set []int32) int32 {
		id := int32(len(d.Next))
		d.Next = append(d.Next, [dna.AlphabetSize]int32{})
		out := uint32(0)
		for _, s := range set {
			if s == n.Accept {
				out = 1
				break
			}
		}
		d.Out = append(d.Out, out)
		ids[key(set)] = id
		return id
	}

	work := []pending{{addState(startSet), startSet}}
	d.Start = 0
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for sym := uint8(0); sym < dna.AlphabetSize; sym++ {
			moved := n.move(cur.set, sym)
			closed := n.epsClosure(moved, visited)
			k := key(closed)
			id, ok := ids[k]
			if !ok {
				id = addState(closed)
				work = append(work, pending{id, closed})
			}
			d.Next[cur.id][sym] = id
		}
	}
	return d
}
