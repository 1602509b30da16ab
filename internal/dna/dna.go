// Package dna provides the DNA-sequence substrate of the reproduction:
// descriptors for the paper's four GenBank genomes (human, mouse, cat,
// dog), a deterministic synthetic sequence generator that replaces the
// multi-gigabyte reference files, FASTA input/output, and the IUPAC
// nucleotide alphabet used to express motifs.
//
// The paper analyzes real DNA sequences of human (3.17 GB), mouse
// (2.77 GB), cat (2.43 GB) and dog (2.38 GB) extracted from NCBI GenBank.
// Those files are not redistributable here; Genome records their sizes and
// composition parameters so the performance model can reason about
// paper-scale inputs, while Generate produces arbitrary amounts of
// composition-matched synthetic sequence for the real matching engine.
package dna

import (
	"fmt"
	"strings"
)

// Base codes. Sequences handled by the matching engine are encoded with
// two bits per base; EncodeByte maps ASCII to these codes.
const (
	BaseA = 0
	BaseC = 1
	BaseG = 2
	BaseT = 3
	// AlphabetSize is the number of concrete nucleotide codes.
	AlphabetSize = 4
)

// Letters maps base codes back to ASCII.
var Letters = [AlphabetSize]byte{'A', 'C', 'G', 'T'}

// EncodeByte maps an ASCII nucleotide (either case) to its 2-bit code.
// It returns (code, true) for A/C/G/T and (0, false) otherwise (including
// the ambiguity code N, which the matching pipeline treats as a wildcard
// position to be skipped or expanded by the caller).
func EncodeByte(b byte) (uint8, bool) {
	switch b {
	case 'A', 'a':
		return BaseA, true
	case 'C', 'c':
		return BaseC, true
	case 'G', 'g':
		return BaseG, true
	case 'T', 't':
		return BaseT, true
	default:
		return 0, false
	}
}

// IUPAC maps every IUPAC nucleotide ambiguity code to the set of concrete
// bases it denotes. Motif patterns may use these codes; the automata
// package expands them into character classes.
var IUPAC = map[byte][]uint8{
	'A': {BaseA},
	'C': {BaseC},
	'G': {BaseG},
	'T': {BaseT},
	'U': {BaseT},
	'R': {BaseA, BaseG},
	'Y': {BaseC, BaseT},
	'S': {BaseC, BaseG},
	'W': {BaseA, BaseT},
	'K': {BaseG, BaseT},
	'M': {BaseA, BaseC},
	'B': {BaseC, BaseG, BaseT},
	'D': {BaseA, BaseG, BaseT},
	'H': {BaseA, BaseC, BaseT},
	'V': {BaseA, BaseC, BaseG},
	'N': {BaseA, BaseC, BaseG, BaseT},
}

// ExpandIUPAC returns the concrete base set for an IUPAC code (either
// case), or an error for a non-IUPAC byte.
func ExpandIUPAC(b byte) ([]uint8, error) {
	up := b
	if up >= 'a' && up <= 'z' {
		up -= 'a' - 'A'
	}
	set, ok := IUPAC[up]
	if !ok {
		return nil, fmt.Errorf("dna: %q is not an IUPAC nucleotide code", string(b))
	}
	return set, nil
}

// Genome describes one of the evaluation inputs.
type Genome struct {
	// Name is the organism, e.g. "human".
	Name string
	// SizeMB is the sequence size in megabytes (1 MB = 2^20 bytes, one
	// byte per base), matching the paper's reported gigabyte sizes.
	SizeMB float64
	// GC is the genome's G+C fraction, used by the synthetic generator.
	GC float64
	// Complexity is the matching-cost multiplier relative to human (1.0);
	// it feeds perf.Traits.
	Complexity float64
}

// String implements fmt.Stringer.
func (g Genome) String() string {
	return fmt.Sprintf("%s (%.0f MB)", g.Name, g.SizeMB)
}

// The paper's four evaluation genomes (Section IV-A). Sizes convert the
// reported gigabytes at 1 GB = 1024 MB. GC contents are the published
// genome-wide values; complexity factors are small perturbations that give
// each genome a distinct performance signature, standing in for
// composition-dependent matching cost.
var (
	Human = Genome{Name: "human", SizeMB: 3.17 * 1024, GC: 0.41, Complexity: 1.00}
	Mouse = Genome{Name: "mouse", SizeMB: 2.77 * 1024, GC: 0.42, Complexity: 0.98}
	Cat   = Genome{Name: "cat", SizeMB: 2.43 * 1024, GC: 0.42, Complexity: 1.03}
	Dog   = Genome{Name: "dog", SizeMB: 2.38 * 1024, GC: 0.41, Complexity: 1.01}
)

// Genomes returns the four evaluation genomes in the paper's order.
func Genomes() []Genome {
	return []Genome{Human, Mouse, Cat, Dog}
}

// GenomeNames lists the evaluation genomes' names in the paper's order.
func GenomeNames() []string {
	gs := Genomes()
	names := make([]string, len(gs))
	for i, g := range gs {
		names[i] = g.Name
	}
	return names
}

// GenomeByName looks up one of the evaluation genomes by case-insensitive
// name. Unknown names fail with the full list of valid names, derived
// from the genome set itself so the error can never go stale.
func GenomeByName(name string) (Genome, error) {
	for _, g := range Genomes() {
		if strings.EqualFold(g.Name, name) {
			return g, nil
		}
	}
	return Genome{}, fmt.Errorf("dna: unknown genome %q (valid: %s)", name, strings.Join(GenomeNames(), ", "))
}

// Motif is a named nucleotide pattern to search for. Pattern may contain
// IUPAC ambiguity codes.
type Motif struct {
	Name    string
	Pattern string
}

// Validate checks that the motif pattern is non-empty and uses only IUPAC
// codes.
func (m Motif) Validate() error {
	if m.Pattern == "" {
		return fmt.Errorf("dna: motif %q has an empty pattern", m.Name)
	}
	for i := 0; i < len(m.Pattern); i++ {
		if _, err := ExpandIUPAC(m.Pattern[i]); err != nil {
			return fmt.Errorf("dna: motif %q: position %d: %v", m.Name, i, err)
		}
	}
	return nil
}

// DefaultMotifs returns a realistic motif set for the DNA-analysis
// workload: well-known promoter elements and restriction-enzyme
// recognition sites.
func DefaultMotifs() []Motif {
	return []Motif{
		{Name: "TATA-box", Pattern: "TATAAA"},
		{Name: "CAAT-box", Pattern: "GGCCAATCT"},
		{Name: "EcoRI", Pattern: "GAATTC"},
		{Name: "BamHI", Pattern: "GGATCC"},
		{Name: "HindIII", Pattern: "AAGCTT"},
		{Name: "NotI", Pattern: "GCGGCCGC"},
		{Name: "SpliceDonor", Pattern: "GTRAGT"}, // R = A|G
		{Name: "KozakCore", Pattern: "GCCRCCATGG"},
	}
}
