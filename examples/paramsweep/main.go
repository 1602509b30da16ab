// paramsweep reproduces the paper's motivational experiment (Figure 2)
// interactively: it sweeps the work-distribution ratio for several input
// sizes and host thread counts and prints where the optimum lands,
// illustrating why no single static distribution is right.
package main

import (
	"fmt"
	"log"

	"hetopt"
)

func main() {
	platform := hetopt.NewPlatform()

	scenarios := []struct {
		label       string
		sizeMB      float64
		hostThreads int
	}{
		{"small input, many host threads", 190, 48},
		{"large input, many host threads", 3250, 48},
		{"large input, few host threads", 3250, 4},
	}

	for _, sc := range scenarios {
		fmt.Printf("%s (%.0f MB, %d host threads)\n", sc.label, sc.sizeMB, sc.hostThreads)
		fmt.Println("  ratio      E [s]")
		workload := hetopt.Workload{Name: "human", SizeMB: sc.sizeMB, Complexity: 1}
		bestLabel, bestE := "", -1.0
		for f := 100; f >= 0; f -= 10 {
			cfg := hetopt.Config{
				HostThreads:    sc.hostThreads,
				HostAffinity:   hetopt.AffinityScatter,
				DeviceThreads:  240,
				DeviceAffinity: hetopt.AffinityBalanced,
				HostFraction:   float64(f),
			}
			times, err := platform.Measure(workload, cfg)
			if err != nil {
				log.Fatal(err)
			}
			label := fmt.Sprintf("%d/%d", f, 100-f)
			switch f {
			case 100:
				label = "CPU only"
			case 0:
				label = "Phi only"
			}
			e := times.E()
			marker := ""
			if bestE < 0 || e < bestE {
				bestE, bestLabel = e, label
			}
			fmt.Printf("  %-9s  %.4f%s\n", label, e, marker)
		}
		fmt.Printf("  -> optimum at %s (%.4f s)\n\n", bestLabel, bestE)
	}

	fmt.Println("The optimum moves with input size and available host threads —")
	fmt.Println("exactly the behaviour that motivates automatic tuning (paper Section II-C).")
}
