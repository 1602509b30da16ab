// dnasearch runs the paper's workload for real: it streams a synthetic
// DNA sequence through the Aho-Corasick matching engine, split between
// the host executor and the (simulated) accelerator according to a tuned
// system configuration, and verifies that the heterogeneous execution
// finds exactly the same motif occurrences as a sequential scan —
// including matches that straddle the host/device boundary.
package main

import (
	"fmt"
	"log"

	"hetopt"
)

func main() {
	// A 32 MiB synthetic cat genome with extra EcoRI sites planted so
	// there is something to find.
	gen := hetopt.NewGenerator(hetopt.Cat, 2024)
	if _, err := gen.WithPlantedMotif("GAATTC", 8192); err != nil {
		log.Fatal(err)
	}
	const totalBytes = 32 << 20

	// Compile the motif set (promoter elements + restriction sites).
	motifs := hetopt.DefaultMotifs()
	dfa, err := hetopt.CompileMotifs(motifs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d motifs into a %d-state automaton (context %d)\n",
		len(motifs), dfa.NumStates(), dfa.ContextLen)

	// Tune the distribution for the full cat genome (2.43 GB) with SAM —
	// no model training needed. A large input favours a host/device
	// split (paper Figure 2b).
	tuner := hetopt.NewTuner()
	fullGenome := hetopt.GenomeWorkload(hetopt.Cat)
	res, err := tuner.Tune(fullGenome, hetopt.SAM, hetopt.Options{Iterations: 500, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tuned configuration (for the full genome):", res.Config)

	// Execute the 32 MiB sample for real with the tuned split: host share
	// on host workers, device share on the device-simulating executor.
	workload := fullGenome.Scaled(float64(totalBytes) / (1 << 20))
	report, err := hetopt.Execute(tuner.Platform, workload, res.Config, dfa, gen, totalBytes)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("host share:   %d bytes, %d matches (%v, %d chunks)\n",
		report.HostBytes, report.HostMatches, report.HostRun.Strategy, report.HostRun.Chunks)
	fmt.Printf("device share: %d bytes, %d matches (%v, %d chunks)\n",
		report.DeviceBytes, report.DeviceMatches, report.DeviceRun.Strategy, report.DeviceRun.Chunks)
	fmt.Printf("total matches: %d (>= %d planted)\n", report.Matches, gen.PlantedCount(totalBytes))
	fmt.Printf("modeled times: host %.4f s, device %.4f s, E = %.4f s\n",
		report.Times.Host, report.Times.Device, report.Times.E())

	// Verify against a sequential scan of the whole input.
	sequential := dfa.CountMatches(gen.Generate(totalBytes))
	if sequential != report.Matches {
		log.Fatalf("MISMATCH: sequential %d != heterogeneous %d", sequential, report.Matches)
	}
	fmt.Println("verified: heterogeneous execution matches a sequential scan exactly")
}
