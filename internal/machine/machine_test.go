package machine

import (
	"strings"
	"testing"
)

func TestAffinityString(t *testing.T) {
	cases := map[Affinity]string{
		AffinityNone:     "none",
		AffinityScatter:  "scatter",
		AffinityCompact:  "compact",
		AffinityBalanced: "balanced",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(a), got, want)
		}
	}
	if got := Affinity(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown affinity string = %q", got)
	}
}

func TestXeonE5HostSpec(t *testing.T) {
	h := XeonE5Host()
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := h.TotalCores(); got != 24 {
		t.Errorf("host cores = %d, want 24", got)
	}
	if got := h.TotalThreads(); got != 48 {
		t.Errorf("host threads = %d, want 48 (Table III)", got)
	}
	if h.SupportsAffinity(AffinityBalanced) {
		t.Error("host must not support balanced affinity (Table I)")
	}
	for _, a := range []Affinity{AffinityNone, AffinityScatter, AffinityCompact} {
		if !h.SupportsAffinity(a) {
			t.Errorf("host should support %v", a)
		}
	}
}

func TestXeonPhiSpec(t *testing.T) {
	d := XeonPhi7120P()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// One of 61 cores is reserved for the card's OS (paper Section II-A).
	if got := d.TotalCores(); got != 60 {
		t.Errorf("device cores = %d, want 60", got)
	}
	if got := d.TotalThreads(); got != 240 {
		t.Errorf("device threads = %d, want 240", got)
	}
	if d.SupportsAffinity(AffinityNone) {
		t.Error("device must not support none affinity (Table I)")
	}
	if d.VectorBits != 512 {
		t.Errorf("device vector width = %d, want 512", d.VectorBits)
	}
}

func TestProcessorValidate(t *testing.T) {
	bad := []*Processor{
		{Name: "no-sockets", CoresPerSocket: 1, ThreadsPerCore: 1, Affinities: []Affinity{AffinityScatter}},
		{Name: "no-cores", Sockets: 1, ThreadsPerCore: 1, Affinities: []Affinity{AffinityScatter}},
		{Name: "no-smt", Sockets: 1, CoresPerSocket: 1, Affinities: []Affinity{AffinityScatter}},
		{Name: "neg-reserved", Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 1, ReservedCores: -1, Affinities: []Affinity{AffinityScatter}},
		{Name: "all-reserved", Sockets: 1, CoresPerSocket: 2, ThreadsPerCore: 1, ReservedCores: 2, Affinities: []Affinity{AffinityScatter}},
		{Name: "no-affinity", Sockets: 1, CoresPerSocket: 1, ThreadsPerCore: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", p.Name)
		}
	}
}
