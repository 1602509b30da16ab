// Package dynsched implements a dynamic self-scheduling baseline of the
// kind the paper's related work builds on (CoreTsar's adaptive
// worksharing, StarPU/OmpSs task queues, Ravi & Agrawal's task-farm
// scheduler): the workload is cut into equal chunks placed in a central
// queue, and the host and the accelerator each grab the next chunk as
// soon as they finish the previous one.
//
// The simulation uses the same calibrated performance model as the static
// optimizer, so "static optimum found by SAML/EM" and "dynamic
// self-scheduling with chunk size c" are directly comparable. Dynamic
// scheduling load-balances without any tuning of the fraction, but pays a
// per-chunk offload launch overhead on the device and still leaves the
// thread-count/affinity choices open — which is exactly the gap the
// paper's configuration search fills.
package dynsched

import (
	"fmt"
	"math"

	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
)

// Config selects the per-side execution configuration and the chunking.
type Config struct {
	HostThreads    int
	HostAffinity   machine.Affinity
	DeviceThreads  int
	DeviceAffinity machine.Affinity
	// ChunkMB is the scheduling granularity.
	ChunkMB float64
}

// Scheduler simulates dynamic self-scheduling on a modeled platform.
type Scheduler struct {
	// Model provides the throughput and overhead constants.
	Model *perf.Model
}

// perChunkLaunchSec is the device-side overhead paid per chunk (offload
// pragma invocation, signalling).
const perChunkLaunchSec = 0.004

// Result reports a simulated dynamic run.
type Result struct {
	// Makespan is the completion time of the last chunk.
	Makespan float64
	// HostChunks and DeviceChunks count the chunks each side processed.
	HostChunks, DeviceChunks int
	// HostBusy and DeviceBusy are the per-side busy times.
	HostBusy, DeviceBusy float64
	// Chunks is the total chunk count.
	Chunks int
}

// HostShare returns the fraction of chunks the host processed.
func (r Result) HostShare() float64 {
	if r.Chunks == 0 {
		return 0
	}
	return float64(r.HostChunks) / float64(r.Chunks)
}

// Simulate runs greedy self-scheduling: the earliest-free processor takes
// the next chunk. It returns the makespan and the realized distribution.
func (s *Scheduler) Simulate(w offload.Workload, cfg Config) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.ChunkMB <= 0 {
		return Result{}, fmt.Errorf("dynsched: chunk size %g must be positive", cfg.ChunkMB)
	}
	// Throughput honors the workload's traits (bytes-per-byte roofline,
	// per-side rate factors) so the simulated dynamic run and the static
	// optimum it is compared against execute the same workload.
	hostRate, err := s.Model.HostThroughputFor(cfg.HostThreads, cfg.HostAffinity, w.Traits())
	if err != nil {
		return Result{}, err
	}
	devRate, err := s.Model.DeviceThroughputFor(cfg.DeviceThreads, cfg.DeviceAffinity, w.Traits())
	if err != nil {
		return Result{}, err
	}
	complexity := w.Complexity
	if complexity <= 0 {
		complexity = 1
	}

	chunks := int(math.Ceil(w.SizeMB / cfg.ChunkMB))
	lastChunkMB := w.SizeMB - float64(chunks-1)*cfg.ChunkMB

	hostChunkCost := func(mb float64) float64 {
		return mb * complexity / hostRate
	}
	devChunkCost := func(mb float64) float64 {
		compute := mb * complexity / devRate
		transfer := mb / s.Model.Cal.PCIeRateMBs
		// Transfer of the next chunk overlaps computation of the current
		// one; the slower of the two paces the pipeline, plus the
		// per-chunk launch overhead.
		return math.Max(compute, transfer) + perChunkLaunchSec + s.Model.Cal.TransferResidual*transfer
	}

	res := Result{Chunks: chunks}
	hostFree := s.Model.Cal.HostSetupSec + s.Model.Cal.HostThreadSpawnSec*float64(cfg.HostThreads)
	devFree := s.Model.Cal.OffloadLatencySec + s.Model.Cal.DeviceSetupSec + s.Model.Cal.DeviceThreadSpawnSec*float64(cfg.DeviceThreads)
	for i := 0; i < chunks; i++ {
		mb := cfg.ChunkMB
		if i == chunks-1 {
			mb = lastChunkMB
		}
		// Greedy: whoever would *finish* the chunk first takes it, which
		// is what work-stealing converges to with lookahead-one.
		hostFinish := hostFree + hostChunkCost(mb)
		devFinish := devFree + devChunkCost(mb)
		if hostFinish <= devFinish {
			hostFree = hostFinish
			res.HostChunks++
			res.HostBusy += hostChunkCost(mb)
		} else {
			devFree = devFinish
			res.DeviceChunks++
			res.DeviceBusy += devChunkCost(mb)
		}
	}
	res.Makespan = hostFree
	if res.DeviceChunks > 0 && devFree > res.Makespan {
		res.Makespan = devFree
	}
	if res.HostChunks == 0 {
		// Host did nothing; its setup does not gate completion.
		res.Makespan = devFree
	}
	return res, nil
}
