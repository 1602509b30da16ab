package graph

import (
	"fmt"
	"strings"

	"hetopt/internal/machine"
	"hetopt/internal/perf"
)

// Placement sides. A placement vector assigns each node one of these.
const (
	SideHost   = 0
	SideDevice = 1
)

// Link describes the host-device interconnect that prices cross-side
// edge transfers: a fixed per-transfer latency (launch/sync cost) plus
// a bandwidth term. Platform specs carry one (scenario.PlatformSpec);
// the zero value is invalid — a link needs positive bandwidth.
type Link struct {
	// BandwidthMBs is the effective transfer rate in MB/s.
	BandwidthMBs float64
	// LatencySec is the fixed cost paid per cross-side transfer.
	LatencySec float64
}

// SideConfig is the execution configuration one side runs every node it
// owns with: the thread count and pinning the roofline model prices
// node throughput at.
type SideConfig struct {
	Threads  int
	Affinity machine.Affinity
}

// simEdge is a precomputed dependency: node from must finish before
// node to starts, plus the transfer time paid when they sit on
// different sides.
type simEdge struct {
	from, to int
	xferSec  float64
}

// Sim is a deterministic list-scheduling simulator for one graph
// workload on one platform: node execution times are precomputed per
// side from the perf roofline model, edge transfer times from the
// platform link, so evaluating a placement is pure table arithmetic.
// The makespan path allocates nothing and a Sim is safe for concurrent
// use (it is read-only after construction).
type Sim struct {
	w        Workload
	n        int
	nodeSec  [2][MaxNodes]float64 // [side][node] execution seconds
	edges    []simEdge            // sorted by (to, from)
	inStart  [MaxNodes + 1]int    // edges[inStart[i]:inStart[i+1]] enter node i
	hostName string
	devName  string
	hostCfg  SideConfig
	devCfg   SideConfig
}

// NewSim prices the workload on a platform: m prices node execution
// (each side runs its nodes serially at the side's configured
// throughput), link prices cross-side transfers.
func NewSim(w Workload, m *perf.Model, host, device SideConfig, link Link) (*Sim, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if link.BandwidthMBs <= 0 {
		return nil, fmt.Errorf("graph: link bandwidth %g must be positive", link.BandwidthMBs)
	}
	if link.LatencySec < 0 {
		return nil, fmt.Errorf("graph: link latency %g must be non-negative", link.LatencySec)
	}
	traits := w.Traits()
	hostRate, err := m.HostThroughputFor(host.Threads, host.Affinity, traits)
	if err != nil {
		return nil, fmt.Errorf("graph: host throughput: %w", err)
	}
	devRate, err := m.DeviceThroughputFor(device.Threads, device.Affinity, traits)
	if err != nil {
		return nil, fmt.Errorf("graph: device throughput: %w", err)
	}
	if hostRate <= 0 || devRate <= 0 {
		return nil, fmt.Errorf("graph: non-positive side throughput (host %g, device %g)", hostRate, devRate)
	}
	s := &Sim{
		w:        w,
		n:        len(w.Nodes),
		hostName: m.Host().Name,
		devName:  m.Device().Name,
		hostCfg:  host,
		devCfg:   device,
	}
	cx := traits.Complexity
	if cx <= 0 {
		cx = 1
	}
	for i, node := range w.Nodes {
		work := node.WorkMB * cx
		s.nodeSec[SideHost][i] = work / hostRate
		s.nodeSec[SideDevice][i] = work / devRate
	}
	// Sort edges by (to, from) so incoming edges of each node are
	// contiguous; the simulate loop walks them via inStart without
	// allocating adjacency lists.
	s.edges = make([]simEdge, len(w.Edges))
	for i, e := range w.Edges {
		s.edges[i] = simEdge{from: e.From, to: e.To, xferSec: link.LatencySec + e.TransferMB/link.BandwidthMBs}
	}
	for i := 1; i < len(s.edges); i++ {
		for j := i; j > 0 && (s.edges[j].to < s.edges[j-1].to ||
			(s.edges[j].to == s.edges[j-1].to && s.edges[j].from < s.edges[j-1].from)); j-- {
			s.edges[j], s.edges[j-1] = s.edges[j-1], s.edges[j]
		}
	}
	ei := 0
	for node := 0; node <= s.n; node++ {
		for ei < len(s.edges) && s.edges[ei].to < node {
			ei++
		}
		s.inStart[node] = ei
	}
	s.inStart[s.n] = len(s.edges)
	return s, nil
}

// Workload returns the simulated graph.
func (s *Sim) Workload() Workload { return s.w }

// Nodes returns the node count — the placement vector's length.
func (s *Sim) Nodes() int { return s.n }

// SideNames returns the processor names placements render with.
func (s *Sim) SideNames() (host, device string) { return s.hostName, s.devName }

// NodeSec returns the priced execution time of one node on one side.
func (s *Sim) NodeSec(side, node int) float64 { return s.nodeSec[side][node] }

// SideConfigs returns the per-side execution configurations the nodes
// were priced at.
func (s *Sim) SideConfigs() (host, device SideConfig) { return s.hostCfg, s.devCfg }

// HostWorkFraction is the percentage of node work (by MB) a placement
// assigns to the host — the DAG analogue of the divisible host fraction.
func (s *Sim) HostWorkFraction(placement []int) float64 {
	total, host := 0.0, 0.0
	for i, node := range s.w.Nodes {
		total += node.WorkMB
		if placement[i]&1 == SideHost {
			host += node.WorkMB
		}
	}
	if total <= 0 {
		return 0
	}
	return 100 * host / total
}

// Makespan runs list scheduling over the placement: nodes start in
// topological (index) order, each waiting for its predecessors — plus
// the link transfer when a predecessor sits on the other side — and for
// its own side's previous node (each side executes serially). The
// return value is the finish time of the last node. It allocates
// nothing and is safe to call concurrently.
func (s *Sim) Makespan(placement []int) float64 {
	var finish [MaxNodes]float64
	var free [2]float64
	for i := 0; i < s.n; i++ {
		side := placement[i] & 1
		ready := 0.0
		for ei := s.inStart[i]; ei < s.inStart[i+1]; ei++ {
			e := &s.edges[ei]
			t := finish[e.from]
			if placement[e.from]&1 != side {
				t += e.xferSec
			}
			if t > ready {
				ready = t
			}
		}
		start := ready
		if free[side] > start {
			start = free[side]
		}
		finish[i] = start + s.nodeSec[side][i]
		free[side] = finish[i]
	}
	if free[SideDevice] > free[SideHost] {
		return free[SideDevice]
	}
	return free[SideHost]
}

// HostOnlySec is the makespan with every node on the host — the
// baseline any heterogeneous placement must beat.
func (s *Sim) HostOnlySec() float64 {
	var placement [MaxNodes]int
	return s.Makespan(placement[:s.n])
}

// DeviceOnlySec is the makespan with every node on the device.
func (s *Sim) DeviceOnlySec() float64 {
	var placement [MaxNodes]int
	for i := 0; i < s.n; i++ {
		placement[i] = SideDevice
	}
	return s.Makespan(placement[:s.n])
}

// RoundRobinPlacement returns the naive alternating placement
// (node i on side i mod 2) — the strawman a search must beat.
func (s *Sim) RoundRobinPlacement() []int {
	placement := make([]int, s.n)
	for i := range placement {
		placement[i] = i % 2
	}
	return placement
}

// NodeSchedule is one node's simulated execution in a Schedule.
type NodeSchedule struct {
	Name             string
	Side             int
	StartSec, EndSec float64
}

// Schedule is the full simulated timeline of one placement, for
// reports and serving results (the search path uses Makespan, which
// allocates nothing).
type Schedule struct {
	Nodes       []NodeSchedule
	MakespanSec float64
	// HostBusySec and DeviceBusySec are each side's summed execution
	// time — the utilization view of the placement.
	HostBusySec, DeviceBusySec float64
}

// Report simulates the placement and returns the full timeline.
func (s *Sim) Report(placement []int) Schedule {
	var finish [MaxNodes]float64
	var free [2]float64
	out := Schedule{Nodes: make([]NodeSchedule, s.n)}
	for i := 0; i < s.n; i++ {
		side := placement[i] & 1
		ready := 0.0
		for ei := s.inStart[i]; ei < s.inStart[i+1]; ei++ {
			e := &s.edges[ei]
			t := finish[e.from]
			if placement[e.from]&1 != side {
				t += e.xferSec
			}
			if t > ready {
				ready = t
			}
		}
		start := ready
		if free[side] > start {
			start = free[side]
		}
		finish[i] = start + s.nodeSec[side][i]
		free[side] = finish[i]
		out.Nodes[i] = NodeSchedule{Name: s.w.Nodes[i].Name, Side: side, StartSec: start, EndSec: finish[i]}
		if side == SideHost {
			out.HostBusySec += s.nodeSec[side][i]
		} else {
			out.DeviceBusySec += s.nodeSec[side][i]
		}
	}
	out.MakespanSec = free[SideHost]
	if free[SideDevice] > out.MakespanSec {
		out.MakespanSec = free[SideDevice]
	}
	return out
}

// FormatPlacement renders a placement with the platform's processor
// names, e.g. "host[stem b1-conv1] device[b1-conv2 ...]".
func (s *Sim) FormatPlacement(placement []int) string {
	var sides [2][]string
	for i := 0; i < s.n; i++ {
		side := placement[i] & 1
		sides[side] = append(sides[side], s.w.Nodes[i].Name)
	}
	return fmt.Sprintf("host[%s] device[%s]",
		strings.Join(sides[SideHost], " "), strings.Join(sides[SideDevice], " "))
}

// PlacementString is the compact canonical encoding of a placement —
// one character per node, 'h' or 'd' — used in serving results where
// byte-identical re-rendering matters.
func PlacementString(placement []int) string {
	var b strings.Builder
	b.Grow(len(placement))
	for _, side := range placement {
		if side&1 == SideHost {
			b.WriteByte('h')
		} else {
			b.WriteByte('d')
		}
	}
	return b.String()
}
