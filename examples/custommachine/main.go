// custommachine shows that the tuner is not tied to the paper's Xeon +
// Xeon Phi testbed: it describes a different accelerator (a GPU-like
// device with many simple cores behind a fast interconnect), builds a
// matching configuration space, trains fresh performance models for the
// new machine, and tunes the distribution.
package main

import (
	"fmt"
	"log"

	"hetopt"
)

func main() {
	// Describe the custom accelerator: 128 simple cores, 2-way SMT,
	// wide memory bus, scatter/compact placement only.
	gpu := &hetopt.Processor{
		Name:            "GPU-like accelerator",
		Sockets:         1,
		CoresPerSocket:  128,
		ThreadsPerCore:  2,
		BaseClockGHz:    1.1,
		MaxClockGHz:     1.4,
		CacheMB:         8,
		MemBandwidthGBs: 600,
		MemoryGB:        24,
		VectorBits:      1024,
		Affinities:      []hetopt.Affinity{hetopt.AffinityScatter, hetopt.AffinityCompact},
	}

	// Calibrate: slower single cores than the Phi, better SMT overlap,
	// faster interconnect, higher launch latency.
	cal := hetopt.DefaultCalibration()
	cal.DeviceCoreRateMBs = 30
	cal.DeviceSMTGain = []float64{1.0, 1.9}
	cal.OffloadLatencySec = 0.18
	cal.PCIeRateMBs = 12000

	platform := hetopt.NewCustomPlatform(hetopt.XeonE5Host(), gpu, cal)

	// A configuration space matching the new device's thread range.
	schema, err := hetopt.NewSchema(hetopt.SchemaSpec{
		HostThreads:      []int{2, 6, 12, 24, 36, 48},
		HostAffinities:   []hetopt.Affinity{hetopt.AffinityNone, hetopt.AffinityScatter, hetopt.AffinityCompact},
		DeviceThreads:    []int{8, 16, 32, 64, 128, 256},
		DeviceAffinities: []hetopt.Affinity{hetopt.AffinityScatter, hetopt.AffinityCompact},
		Fractions:        fractions(2.5),
	})
	if err != nil {
		log.Fatal(err)
	}

	// Fresh tuner for the custom machine: the training grid must use the
	// machine's own thread/affinity values.
	tuner := hetopt.NewTuner()
	tuner.Platform = platform
	tuner.Schema = schema
	tuner.Plan.DeviceThreads = []int{8, 16, 32, 64, 128, 256}
	tuner.Plan.DeviceAffinities = []hetopt.Affinity{hetopt.AffinityScatter, hetopt.AffinityCompact}

	fmt.Printf("training models for %q (%d+%d experiments)...\n",
		gpu.Name, tuner.Plan.HostExperiments(), tuner.Plan.DeviceExperiments())
	if err := tuner.Train(); err != nil {
		log.Fatal(err)
	}

	workload := hetopt.GenomeWorkload(hetopt.Mouse)
	res, err := tuner.Tune(workload, hetopt.SAML, hetopt.Options{Iterations: 1000, Seed: 5})
	if err != nil {
		log.Fatal(err)
	}
	hostOnly, deviceOnly, err := tuner.Baselines(workload)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("suggested configuration:", res.Config)
	fmt.Printf("E = %.4f s | host-only %.4f s (%.2fx) | device-only %.4f s (%.2fx)\n",
		res.MeasuredE(),
		hostOnly.MeasuredE(), hostOnly.MeasuredE()/res.MeasuredE(),
		deviceOnly.MeasuredE(), deviceOnly.MeasuredE()/res.MeasuredE())
}

// fractions builds the 0..100 grid with the given step.
func fractions(step float64) []float64 {
	var out []float64
	for f := 0.0; f <= 100; f += step {
		out = append(out, f)
	}
	return out
}
