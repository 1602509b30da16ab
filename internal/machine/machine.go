// Package machine models the hardware topology of the heterogeneous
// platform the paper evaluates on (Table III): a host with two 12-core
// Intel Xeon E5-2695v2 CPUs (2 hardware threads per core, 48 threads
// total) and an Intel Xeon Phi 7120P co-processor (61 cores, 4 hardware
// threads per core; one core is reserved for the card's µOS, leaving 60
// cores / 240 threads for computation).
//
// The package's main job is affinity placement: given a requested thread
// count and a thread-affinity strategy (none/scatter/compact on the host,
// balanced/scatter/compact on the device, following Intel's KMP_AFFINITY
// semantics), it decides which hardware threads the software threads
// occupy. The resulting occupancy — how many cores participate and how
// many threads share each core — drives the throughput model in
// internal/perf.
package machine

import "fmt"

// Affinity names a thread pinning strategy. The host accepts None, Scatter
// and Compact; the device accepts Balanced, Scatter and Compact, matching
// Table I of the paper.
type Affinity int

const (
	// AffinityNone leaves placement to the operating system (host only).
	AffinityNone Affinity = iota
	// AffinityScatter distributes threads as evenly as possible across
	// cores (and sockets) before reusing hardware threads.
	AffinityScatter
	// AffinityCompact packs threads onto as few cores as possible,
	// filling every hardware thread of a core before moving on.
	AffinityCompact
	// AffinityBalanced distributes threads evenly across cores but keeps
	// consecutively numbered threads adjacent (device only).
	AffinityBalanced
)

var affinityNames = map[Affinity]string{
	AffinityNone:     "none",
	AffinityScatter:  "scatter",
	AffinityCompact:  "compact",
	AffinityBalanced: "balanced",
}

// String returns the lowercase KMP-style name of the affinity.
func (a Affinity) String() string {
	if s, ok := affinityNames[a]; ok {
		return s
	}
	return fmt.Sprintf("affinity(%d)", int(a))
}

// Processor describes one processing unit (a CPU package pair or an
// accelerator card) at the granularity the performance model needs.
type Processor struct {
	// Name identifies the processor in reports, e.g. "2x Xeon E5-2695v2".
	Name string
	// Sockets is the number of physical packages sharing the cores.
	Sockets int
	// CoresPerSocket is the number of physical cores in each package.
	CoresPerSocket int
	// ThreadsPerCore is the SMT width of each core.
	ThreadsPerCore int
	// ReservedCores is subtracted from the usable core count (the Xeon
	// Phi reserves one core for its embedded OS).
	ReservedCores int
	// BaseClockGHz and MaxClockGHz bound the operating frequency.
	BaseClockGHz, MaxClockGHz float64
	// CacheMB is the size of the last-level cache in megabytes.
	CacheMB float64
	// MemBandwidthGBs is the peak memory bandwidth in GB/s (per
	// processor, aggregated over its sockets).
	MemBandwidthGBs float64
	// MemoryGB is the attached memory capacity.
	MemoryGB float64
	// VectorBits is the SIMD register width in bits.
	VectorBits int
	// Affinities lists the placement strategies the processor supports.
	Affinities []Affinity
}

// TotalCores returns the number of physical cores usable for computation.
func (p *Processor) TotalCores() int {
	c := p.Sockets*p.CoresPerSocket - p.ReservedCores
	if c < 0 {
		return 0
	}
	return c
}

// TotalThreads returns the number of usable hardware threads.
func (p *Processor) TotalThreads() int {
	return p.TotalCores() * p.ThreadsPerCore
}

// SupportsAffinity reports whether the processor accepts the strategy.
func (p *Processor) SupportsAffinity(a Affinity) bool {
	for _, s := range p.Affinities {
		if s == a {
			return true
		}
	}
	return false
}

// Validate checks the structural sanity of the processor description.
func (p *Processor) Validate() error {
	switch {
	case p.Sockets <= 0:
		return fmt.Errorf("machine: %s: sockets must be positive, got %d", p.Name, p.Sockets)
	case p.CoresPerSocket <= 0:
		return fmt.Errorf("machine: %s: cores per socket must be positive, got %d", p.Name, p.CoresPerSocket)
	case p.ThreadsPerCore <= 0:
		return fmt.Errorf("machine: %s: threads per core must be positive, got %d", p.Name, p.ThreadsPerCore)
	case p.ReservedCores < 0:
		return fmt.Errorf("machine: %s: reserved cores must be non-negative, got %d", p.Name, p.ReservedCores)
	case p.TotalCores() == 0:
		return fmt.Errorf("machine: %s: no usable cores", p.Name)
	case len(p.Affinities) == 0:
		return fmt.Errorf("machine: %s: no affinity strategies declared", p.Name)
	}
	return nil
}

// XeonE5Host returns the paper's host: two Intel Xeon E5-2695v2 packages
// (12 cores each, 2-way hyper-threading, 30 MB L3 per package, 59.7 GB/s
// per package).
func XeonE5Host() *Processor {
	return &Processor{
		Name:            "2x Intel Xeon E5-2695v2",
		Sockets:         2,
		CoresPerSocket:  12,
		ThreadsPerCore:  2,
		BaseClockGHz:    2.4,
		MaxClockGHz:     3.2,
		CacheMB:         30,
		MemBandwidthGBs: 2 * 59.7,
		MemoryGB:        128,
		VectorBits:      256,
		Affinities:      []Affinity{AffinityNone, AffinityScatter, AffinityCompact},
	}
}

// XeonPhi7120P returns the paper's accelerator: an Intel Xeon Phi 7120P
// with 61 cores (one reserved for the µOS), 4-way SMT, 30.5 MB aggregate
// L2, 352 GB/s GDDR bandwidth and 512-bit vector units.
func XeonPhi7120P() *Processor {
	return &Processor{
		Name:            "Intel Xeon Phi 7120P",
		Sockets:         1,
		CoresPerSocket:  61,
		ThreadsPerCore:  4,
		ReservedCores:   1,
		BaseClockGHz:    1.238,
		MaxClockGHz:     1.333,
		CacheMB:         30.5,
		MemBandwidthGBs: 352,
		MemoryGB:        16,
		VectorBits:      512,
		Affinities:      []Affinity{AffinityBalanced, AffinityScatter, AffinityCompact},
	}
}
