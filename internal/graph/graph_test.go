package graph

import (
	"math"
	"testing"

	"hetopt/internal/machine"
	"hetopt/internal/perf"
)

func testSim(t *testing.T, w Workload) *Sim {
	t.Helper()
	s, err := NewSim(w, perf.NewPaperModel(),
		SideConfig{Threads: 48, Affinity: machine.AffinityCompact},
		SideConfig{Threads: 240, Affinity: machine.AffinityBalanced},
		Link{BandwidthMBs: 6500, LatencySec: 0.0025})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPresetsValidate(t *testing.T) {
	presets := Presets()
	if len(presets) != 3 {
		t.Fatalf("expected 3 shipped presets, got %d", len(presets))
	}
	seen := map[string]bool{}
	for _, w := range presets {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if seen[w.Name] {
			t.Errorf("duplicate preset name %q", w.Name)
		}
		seen[w.Name] = true
		if w.TotalWorkMB() <= 0 {
			t.Errorf("%s: non-positive total work", w.Name)
		}
	}
}

func TestValidateRejectsMalformedGraphs(t *testing.T) {
	base := ResNetIsh()
	cases := []struct {
		name   string
		mutate func(*Workload)
	}{
		{"unnamed", func(w *Workload) { w.Name = " " }},
		{"no nodes", func(w *Workload) { w.Nodes = nil }},
		{"zero work", func(w *Workload) { w.Nodes[0].WorkMB = 0 }},
		{"duplicate node", func(w *Workload) { w.Nodes[1].Name = w.Nodes[0].Name }},
		{"backward edge", func(w *Workload) { w.Edges[0] = Edge{From: 3, To: 1} }},
		{"self edge", func(w *Workload) { w.Edges[0] = Edge{From: 2, To: 2} }},
		{"out of range", func(w *Workload) { w.Edges[0] = Edge{From: 0, To: 99} }},
		{"negative transfer", func(w *Workload) { w.Edges[0].TransferMB = -1 }},
		{"too many nodes", func(w *Workload) {
			w.Nodes = make([]Node, MaxNodes+1)
			for i := range w.Nodes {
				w.Nodes[i] = Node{Name: string(rune('a'+i%26)) + string(rune('0'+i/26)), WorkMB: 1}
			}
			w.Edges = nil
		}},
	}
	for _, tc := range cases {
		w := base
		w.Nodes = append([]Node(nil), base.Nodes...)
		w.Edges = append([]Edge(nil), base.Edges...)
		tc.mutate(&w)
		if err := w.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// TestMakespanChainSemantics checks list scheduling by hand on a
// two-node chain: same-side placement pays no transfer, cross-side
// placement pays exactly the link cost.
func TestMakespanChainSemantics(t *testing.T) {
	w := Workload{
		Name:  "chain",
		Nodes: []Node{{Name: "a", WorkMB: 100}, {Name: "b", WorkMB: 100}},
		Edges: []Edge{{From: 0, To: 1, TransferMB: 65}},
	}
	s := testSim(t, w)
	hostBoth := s.Makespan([]int{0, 0})
	want := s.NodeSec(SideHost, 0) + s.NodeSec(SideHost, 1)
	if math.Abs(hostBoth-want) > 1e-12 {
		t.Errorf("host chain makespan %g, want %g", hostBoth, want)
	}
	cross := s.Makespan([]int{0, 1})
	xfer := 0.0025 + 65.0/6500
	wantCross := s.NodeSec(SideHost, 0) + xfer + s.NodeSec(SideDevice, 1)
	if math.Abs(cross-wantCross) > 1e-12 {
		t.Errorf("cross chain makespan %g, want %g", cross, wantCross)
	}
}

// TestMakespanOverlapsIndependentNodes checks that two independent
// nodes on different sides run concurrently, and that each side
// executes its own nodes serially.
func TestMakespanOverlapsIndependentNodes(t *testing.T) {
	w := Workload{
		Name:  "pair",
		Nodes: []Node{{Name: "a", WorkMB: 300}, {Name: "b", WorkMB: 300}},
	}
	s := testSim(t, w)
	split := s.Makespan([]int{0, 1})
	wantSplit := math.Max(s.NodeSec(SideHost, 0), s.NodeSec(SideDevice, 1))
	if math.Abs(split-wantSplit) > 1e-12 {
		t.Errorf("split makespan %g, want %g (overlap)", split, wantSplit)
	}
	serial := s.Makespan([]int{0, 0})
	wantSerial := s.NodeSec(SideHost, 0) + s.NodeSec(SideHost, 1)
	if math.Abs(serial-wantSerial) > 1e-12 {
		t.Errorf("serial makespan %g, want %g", serial, wantSerial)
	}
}

func TestBaselinesAndReportAgree(t *testing.T) {
	for _, w := range Presets() {
		s := testSim(t, w)
		placement := s.RoundRobinPlacement()
		rep := s.Report(placement)
		if math.Abs(rep.MakespanSec-s.Makespan(placement)) > 1e-12 {
			t.Errorf("%s: Report makespan %g != Makespan %g", w.Name, rep.MakespanSec, s.Makespan(placement))
		}
		if rep.HostBusySec+rep.DeviceBusySec <= 0 {
			t.Errorf("%s: no busy time reported", w.Name)
		}
		if s.HostOnlySec() <= 0 || s.DeviceOnlySec() <= 0 {
			t.Errorf("%s: non-positive baseline", w.Name)
		}
	}
}

func TestPlacementStringRoundTrip(t *testing.T) {
	placement := []int{0, 1, 1, 0, 1}
	s := PlacementString(placement)
	if s != "hddhd" {
		t.Fatalf("PlacementString = %q", s)
	}
	for i, side := range placement {
		if back := map[byte]int{'h': SideHost, 'd': SideDevice}[s[i]]; back != side {
			t.Fatalf("node %d: %q decodes to side %d, placed on %d", i, s[i], back, side)
		}
	}
}

// TestMakespanAllocsZero enforces the simulator's steady-state
// zero-allocation contract: the makespan path is the inner loop of
// every placement search.
func TestMakespanAllocsZero(t *testing.T) {
	s := testSim(t, ResNetIsh())
	placement := s.RoundRobinPlacement()
	allocs := testing.AllocsPerRun(100, func() {
		if s.Makespan(placement) <= 0 {
			t.Fatal("non-positive makespan")
		}
	})
	if allocs != 0 {
		t.Errorf("Makespan allocates %v objects per run, want 0", allocs)
	}
}
