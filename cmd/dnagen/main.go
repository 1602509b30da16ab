// Command dnagen writes deterministic synthetic DNA sequences in FASTA
// format, composition-matched to one of the paper's evaluation genomes.
// It replaces the multi-gigabyte GenBank reference files the paper uses
// (see DESIGN.md, "Hardware substitution").
//
// Usage:
//
//	dnagen -genome human -size 16 -out human16.fa
//	dnagen -genome cat -size 4 -plant GAATTC -interval 4096 -out cat4.fa
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"hetopt/internal/dna"
)

func main() {
	var (
		genomeName = flag.String("genome", "human", "genome composition: human, mouse, cat or dog")
		sizeMB     = flag.Float64("size", 1, "sequence size in MiB")
		seed       = flag.Uint64("seed", 42, "generator seed")
		out        = flag.String("out", "", "output FASTA file (empty = stdout)")
		plant      = flag.String("plant", "", "optional motif to plant at regular intervals")
		interval   = flag.Int("interval", 4096, "mean planting interval in bases")
	)
	flag.Parse()

	if err := run(*genomeName, *sizeMB, *seed, *out, *plant, *interval); err != nil {
		fmt.Fprintln(os.Stderr, "dnagen:", err)
		os.Exit(1)
	}
}

func run(genomeName string, sizeMB float64, seed uint64, out, plant string, interval int) error {
	genome, err := dna.GenomeByName(genomeName)
	if err != nil {
		return err
	}
	// Negated so that NaN fails too: the base count must be at least one
	// and fit in an int before anything is allocated.
	bases := sizeMB * (1 << 20)
	if !(bases >= 1 && bases < math.MaxInt) {
		return fmt.Errorf("size must be a finite positive number of MiB whose base count fits in an int, got %g", sizeMB)
	}
	gen := dna.NewGenerator(genome, seed)
	if plant != "" {
		if _, err := gen.WithPlantedMotif(plant, interval); err != nil {
			return err
		}
	}
	n := int(bases)

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	header := fmt.Sprintf("synthetic %s GC=%.2f seed=%d size=%d", genome.Name, genome.GC, seed, n)
	if err := dna.StreamFASTA(w, header, n, gen.GenerateAt); err != nil {
		return err
	}
	if plant != "" {
		fmt.Fprintf(os.Stderr, "planted %d occurrences of %s\n", gen.PlantedCount(n), plant)
	}
	return nil
}
