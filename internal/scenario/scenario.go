// Package scenario is the catalog layer of the tuning stack: a registry
// of named workload families and platform specifications that every
// optimizer, objective, strategy, CLI and the serving layer resolve
// scenarios from. The paper tunes exactly one application (Aho-Corasick
// DNA matching) on exactly one platform (2x Xeon E5-2695v2 + Xeon Phi
// 7120P), but its combinatorial-optimization machinery is
// workload-agnostic; this package makes "which workload, on which
// machine" a first-class, pluggable input.
//
// A workload family contributes the perf.Traits-style parameters that
// shape execution time — complexity (compute per byte), bytes-per-byte
// memory traffic (arithmetic intensity), and per-side rate factors (how
// well the kernel maps onto each processor) — plus named size presets.
// A platform spec contributes the machine topology (host and device
// processor descriptions), the performance-model calibration including
// the power constants, and the configuration-space value sets.
//
// The paper's scenario — the four DNA genomes on the paper platform —
// is registered as the default, and resolving it reproduces the
// pre-scenario-layer behaviour bit-identically. Adding a new scenario
// is a single Register call; see DESIGN.md, "The scenario layer".
package scenario

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hetopt/internal/core"
	"hetopt/internal/graph"
	"hetopt/internal/machine"
	"hetopt/internal/offload"
	"hetopt/internal/perf"
	"hetopt/internal/space"
)

// Class is the workload-class axis of a family: how its work divides
// across the two processors.
type Class string

const (
	// ClassDivisible is the paper's shape — one kernel split by a
	// fraction. The empty Class means divisible, so every family
	// registered before the class axis existed behaves unchanged.
	ClassDivisible Class = "divisible"
	// ClassDAG is a task graph placed node-by-node across host and
	// device (internal/graph).
	ClassDAG Class = "dag"
)

// SizePreset is one named input size of a workload family.
type SizePreset struct {
	// Name addresses the preset ("small", "human", ...).
	Name string
	// SizeMB is the input size in megabytes. For DAG presets it is the
	// graph's total node work, so size-based reporting stays uniform
	// across classes.
	SizeMB float64
	// Complexity overrides the family default when positive (the DNA
	// genomes carry per-organism matching-cost factors).
	Complexity float64
	// WorkloadName overrides the resolved workload's name when set. The
	// DNA presets keep their organism names ("human", not "dna") so the
	// measurement-noise keys — and therefore every result — stay
	// bit-identical to the pre-scenario-layer code.
	WorkloadName string
	// Graph is the task graph of a ClassDAG preset; divisible presets
	// leave it nil.
	Graph *graph.Workload

	// qualified is the canonical lowercase "family:preset" name,
	// precomputed at registration so hot callers (the serving layer's
	// request canonicalization) get it without allocating a concat.
	qualified string
}

// Qualified returns the canonical lowercase "family:preset" name of the
// preset within fam. Presets obtained from a registry carry it
// precomputed (allocation-free); hand-built presets fall back to the
// concatenation.
func (p SizePreset) Qualified(fam Family) string {
	if p.qualified != "" {
		return p.qualified
	}
	return strings.ToLower(fam.Name) + ":" + strings.ToLower(p.Name)
}

// Family is a named workload family: the traits shared by every size of
// one kind of computation.
type Family struct {
	// Name addresses the family ("dna", "spmv", ...).
	Name string
	// Description is a one-line summary for catalogs and /v1/scenarios.
	Description string
	// Complexity is the compute cost per input byte relative to the DNA
	// reference (zero means 1.0).
	Complexity float64
	// BytesPerByte is the memory traffic per input byte (zero keeps the
	// platform calibration's default of 1.0). High values make the
	// workload bandwidth-bound: throughput hits the roofline ceiling.
	BytesPerByte float64
	// HostRateFactor and DeviceRateFactor scale the per-core streaming
	// rates relative to the DNA reference (zero means 1.0), modeling how
	// well the kernel maps onto each side's microarchitecture.
	HostRateFactor, DeviceRateFactor float64
	// Class selects the workload class; empty means ClassDivisible.
	Class Class
	// Presets are the named sizes; the first one is the family default.
	Presets []SizePreset
}

// IsDAG reports whether the family's workloads are task graphs.
func (f Family) IsDAG() bool { return f.Class == ClassDAG }

// Validate checks the family's structural sanity.
func (f Family) Validate() error {
	if strings.TrimSpace(f.Name) == "" {
		return fmt.Errorf("scenario: workload family needs a name")
	}
	if strings.ContainsAny(f.Name, ": \t") {
		return fmt.Errorf("scenario: family name %q must not contain colons or spaces", f.Name)
	}
	if f.Class != "" && f.Class != ClassDivisible && f.Class != ClassDAG {
		return fmt.Errorf("scenario: family %q has unknown class %q", f.Name, f.Class)
	}
	if len(f.Presets) == 0 {
		return fmt.Errorf("scenario: family %q needs at least one size preset", f.Name)
	}
	seen := map[string]bool{}
	for _, p := range f.Presets {
		if strings.TrimSpace(p.Name) == "" {
			return fmt.Errorf("scenario: family %q has an unnamed preset", f.Name)
		}
		if p.SizeMB <= 0 {
			return fmt.Errorf("scenario: family %q preset %q size %g must be positive", f.Name, p.Name, p.SizeMB)
		}
		if f.IsDAG() {
			if p.Graph == nil {
				return fmt.Errorf("scenario: DAG family %q preset %q has no graph", f.Name, p.Name)
			}
			if err := p.Graph.Validate(); err != nil {
				return fmt.Errorf("scenario: family %q preset %q: %w", f.Name, p.Name, err)
			}
		} else if p.Graph != nil {
			return fmt.Errorf("scenario: divisible family %q preset %q carries a graph", f.Name, p.Name)
		}
		key := strings.ToLower(p.Name)
		if seen[key] {
			return fmt.Errorf("scenario: family %q has duplicate preset %q", f.Name, p.Name)
		}
		seen[key] = true
	}
	return nil
}

// workload materializes one preset of the family. DAG presets yield a
// carrier workload with the graph's traits and total work, so
// class-agnostic consumers (catalog listings, size reporting) see a
// uniform shape; the runnable object for a DAG preset is the graph
// itself (Family.Graph).
func (f Family) workload(p SizePreset) offload.Workload {
	if f.IsDAG() && p.Graph != nil {
		name := p.WorkloadName
		if name == "" {
			name = p.Graph.Name
		}
		return offload.Workload{
			Name:             name,
			SizeMB:           p.SizeMB,
			Complexity:       p.Graph.Complexity,
			BytesPerByte:     p.Graph.BytesPerByte,
			HostRateFactor:   p.Graph.HostRateFactor,
			DeviceRateFactor: p.Graph.DeviceRateFactor,
		}
	}
	name := p.WorkloadName
	if name == "" {
		name = f.Name
	}
	cx := p.Complexity
	if cx <= 0 {
		cx = f.Complexity
	}
	return offload.Workload{
		Name:             name,
		SizeMB:           p.SizeMB,
		Complexity:       cx,
		BytesPerByte:     f.BytesPerByte,
		HostRateFactor:   f.HostRateFactor,
		DeviceRateFactor: f.DeviceRateFactor,
	}
}

// Preset looks up a preset by case-insensitive name; the empty name
// selects the family default (the first preset).
func (f Family) Preset(name string) (SizePreset, error) {
	if strings.TrimSpace(name) == "" {
		return f.Presets[0], nil
	}
	for _, p := range f.Presets {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	names := make([]string, len(f.Presets))
	for i, p := range f.Presets {
		names[i] = p.Name
	}
	return SizePreset{}, fmt.Errorf("scenario: family %q has no preset %q%s", f.Name, name, suggest(name, names))
}

// Workload resolves a preset name (empty = default) into the runnable
// workload.
func (f Family) Workload(preset string) (offload.Workload, error) {
	p, err := f.Preset(preset)
	if err != nil {
		return offload.Workload{}, err
	}
	return f.workload(p), nil
}

// DefaultWorkload returns the family's default preset as a workload.
func (f Family) DefaultWorkload() offload.Workload {
	return f.workload(f.Presets[0])
}

// Graph resolves a preset name (empty = default) into the family's
// task graph; it fails for divisible families.
func (f Family) Graph(preset string) (graph.Workload, error) {
	if !f.IsDAG() {
		return graph.Workload{}, fmt.Errorf("scenario: family %q is not a DAG family", f.Name)
	}
	p, err := f.Preset(preset)
	if err != nil {
		return graph.Workload{}, err
	}
	return *p.Graph, nil
}

// PlatformSpec is a named heterogeneous platform: topology, calibration
// (timing and power constants) and the configuration space.
type PlatformSpec struct {
	// Name addresses the platform ("paper", "gpu-like", ...).
	Name string
	// Description is a one-line summary for catalogs and /v1/scenarios.
	Description string
	// Host and Device construct the processor descriptions (fresh values
	// per call, so callers can mutate their copies safely).
	Host, Device func() *machine.Processor
	// Cal constructs the performance-model calibration, including the
	// power constants of the energy objective.
	Cal func() perf.Calibration
	// Space lists the configuration-space value sets (thread counts,
	// affinities, fraction grid) tuned over on this platform.
	Space space.SchemaSpec
	// LinkBandwidthMBs and LinkLatencySec describe the host-device
	// interconnect that prices DAG edge transfers. A zero bandwidth
	// falls back to the calibration's PCIe constants (see Link), so
	// platforms registered before the graph layer keep working.
	LinkBandwidthMBs float64
	LinkLatencySec   float64
}

// Link returns the platform's transfer link for the graph simulator.
// When LinkBandwidthMBs is unset the calibration's offload constants
// stand in: PCIe bandwidth, and the full offload latency as the
// per-transfer cost — conservative, since a per-edge transfer pays at
// most one launch/sync round-trip.
func (p PlatformSpec) Link() graph.Link {
	if p.LinkBandwidthMBs > 0 {
		return graph.Link{BandwidthMBs: p.LinkBandwidthMBs, LatencySec: p.LinkLatencySec}
	}
	cal := p.Cal()
	return graph.Link{BandwidthMBs: cal.PCIeRateMBs, LatencySec: cal.OffloadLatencySec}
}

// bestSideConfig picks the throughput-maximizing (threads, affinity)
// pair for one side of the platform under a workload's traits, scanning
// the spec's value sets in order (ties keep the earliest pair, so the
// choice is deterministic). Each side of a DAG placement runs its nodes
// at this configuration.
func bestSideConfig(threadValues []int, affinities []machine.Affinity,
	rate func(threads int, aff machine.Affinity) (float64, error)) (graph.SideConfig, error) {
	best := graph.SideConfig{}
	bestRate := -1.0
	for _, threads := range threadValues {
		for _, aff := range affinities {
			r, err := rate(threads, aff)
			if err != nil {
				return graph.SideConfig{}, err
			}
			if r > bestRate {
				best, bestRate = graph.SideConfig{Threads: threads, Affinity: aff}, r
			}
		}
	}
	if bestRate <= 0 {
		return graph.SideConfig{}, fmt.Errorf("scenario: no usable side configuration")
	}
	return best, nil
}

// DAGSim builds the list-scheduling simulator for a graph workload on
// this platform: node execution is priced by the roofline model at each
// side's best configuration from the platform's value sets, edge
// transfers by the platform link.
func (p PlatformSpec) DAGSim(w graph.Workload) (*graph.Sim, error) {
	m := p.Model()
	traits := w.Traits()
	host, err := bestSideConfig(p.Space.HostThreads, p.Space.HostAffinities,
		func(threads int, aff machine.Affinity) (float64, error) {
			return m.HostThroughputFor(threads, aff, traits)
		})
	if err != nil {
		return nil, fmt.Errorf("scenario: platform %q host: %w", p.Name, err)
	}
	device, err := bestSideConfig(p.Space.DeviceThreads, p.Space.DeviceAffinities,
		func(threads int, aff machine.Affinity) (float64, error) {
			return m.DeviceThroughputFor(threads, aff, traits)
		})
	if err != nil {
		return nil, fmt.Errorf("scenario: platform %q device: %w", p.Name, err)
	}
	return graph.NewSim(w, m, host, device, p.Link())
}

// Validate checks the spec's structural sanity.
func (p PlatformSpec) Validate() error {
	if strings.TrimSpace(p.Name) == "" {
		return fmt.Errorf("scenario: platform spec needs a name")
	}
	if strings.ContainsAny(p.Name, ": \t") {
		return fmt.Errorf("scenario: platform name %q must not contain colons or spaces", p.Name)
	}
	if p.Host == nil || p.Device == nil || p.Cal == nil {
		return fmt.Errorf("scenario: platform %q needs host, device and calibration constructors", p.Name)
	}
	if err := p.Host().Validate(); err != nil {
		return fmt.Errorf("scenario: platform %q host: %w", p.Name, err)
	}
	if err := p.Device().Validate(); err != nil {
		return fmt.Errorf("scenario: platform %q device: %w", p.Name, err)
	}
	if _, err := p.Schema(); err != nil {
		return fmt.Errorf("scenario: platform %q: %w", p.Name, err)
	}
	return nil
}

// Model builds the platform's performance model.
func (p PlatformSpec) Model() *perf.Model {
	return perf.NewModel(p.Host(), p.Device(), p.Cal())
}

// Platform builds the measurement substrate for the spec.
func (p PlatformSpec) Platform() *offload.Platform {
	return offload.NewPlatformWithModel(p.Model())
}

// Schema builds the platform's configuration space.
func (p PlatformSpec) Schema() (*space.Schema, error) {
	return space.NewSchema(p.Space)
}

// TrainingPlan derives the model-training grid for one workload family
// on this platform: every preset of the family, the paper's fraction
// grid (2.5%-100% in 2.5% steps), and the platform's thread/affinity
// value sets. For the DNA family on the paper platform this reproduces
// core.PaperTrainingPlan exactly, keeping the trained models — and the
// EML/SAML results — bit-identical to the pre-scenario-layer code.
func (p PlatformSpec) TrainingPlan(f Family) core.TrainingPlan {
	fractions := make([]float64, 0, 40)
	for fr := 2.5; fr <= 100; fr += 2.5 {
		fractions = append(fractions, fr)
	}
	workloads := make([]offload.Workload, len(f.Presets))
	for i, preset := range f.Presets {
		workloads[i] = f.workload(preset)
	}
	return core.TrainingPlan{
		Workloads:        workloads,
		Fractions:        fractions,
		HostThreads:      append([]int(nil), p.Space.HostThreads...),
		HostAffinities:   append([]machine.Affinity(nil), p.Space.HostAffinities...),
		DeviceThreads:    append([]int(nil), p.Space.DeviceThreads...),
		DeviceAffinities: append([]machine.Affinity(nil), p.Space.DeviceAffinities...),
	}
}

// Registry holds named workload families and platform specs. The zero
// value is empty and usable; Builtin returns one with the shipped
// catalog. A Registry is safe for concurrent use.
type Registry struct {
	mu        sync.RWMutex
	families  map[string]Family
	famOrder  []string
	platforms map[string]PlatformSpec
	platOrder []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterFamily adds a workload family; names are case-insensitively
// unique.
func (r *Registry) RegisterFamily(f Family) error {
	if err := f.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(f.Name)
	if r.families == nil {
		r.families = map[string]Family{}
	}
	if _, ok := r.families[key]; ok {
		return fmt.Errorf("scenario: workload family %q already registered", f.Name)
	}
	// Copy the preset slice (the caller keeps its own) and precompute
	// each preset's canonical qualified name.
	presets := make([]SizePreset, len(f.Presets))
	copy(presets, f.Presets)
	for i := range presets {
		presets[i].qualified = key + ":" + strings.ToLower(presets[i].Name)
	}
	f.Presets = presets
	r.families[key] = f
	r.famOrder = append(r.famOrder, key)
	return nil
}

// RegisterPlatform adds a platform spec; names are case-insensitively
// unique.
func (r *Registry) RegisterPlatform(p PlatformSpec) error {
	if err := p.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := strings.ToLower(p.Name)
	if r.platforms == nil {
		r.platforms = map[string]PlatformSpec{}
	}
	if _, ok := r.platforms[key]; ok {
		return fmt.Errorf("scenario: platform %q already registered", p.Name)
	}
	r.platforms[key] = p
	r.platOrder = append(r.platOrder, key)
	return nil
}

// Families lists the registered workload families in registration order.
func (r *Registry) Families() []Family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Family, 0, len(r.famOrder))
	for _, k := range r.famOrder {
		out = append(out, r.families[k])
	}
	return out
}

// Platforms lists the registered platform specs in registration order.
func (r *Registry) Platforms() []PlatformSpec {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]PlatformSpec, 0, len(r.platOrder))
	for _, k := range r.platOrder {
		out = append(out, r.platforms[k])
	}
	return out
}

// Family looks a workload family up by case-insensitive name. Unknown
// names fail with the full list of valid names (did-you-mean style).
func (r *Registry) Family(name string) (Family, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if f, ok := r.families[strings.ToLower(strings.TrimSpace(name))]; ok {
		return f, nil
	}
	return Family{}, fmt.Errorf("scenario: unknown workload family %q%s", name, suggest(name, r.famOrder))
}

// Platform looks a platform spec up by case-insensitive name. Unknown
// names fail with the full list of valid names.
func (r *Registry) Platform(name string) (PlatformSpec, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if p, ok := r.platforms[strings.ToLower(strings.TrimSpace(name))]; ok {
		return p, nil
	}
	return PlatformSpec{}, fmt.Errorf("scenario: unknown platform %q%s", name, suggest(name, r.platOrder))
}

// Resolve parses a workload name — "family", "family:preset", or a bare
// preset name that is unique across the registry (the genome names
// "human", "mouse", "cat", "dog" resolve this way) — into its family
// and preset. Unknown names fail with every resolvable name.
func (r *Registry) Resolve(name string) (Family, SizePreset, error) {
	q := strings.ToLower(strings.TrimSpace(name))
	if q == "" {
		return Family{}, SizePreset{}, fmt.Errorf("scenario: empty workload name (valid: %s)", strings.Join(r.WorkloadNames(), ", "))
	}
	if fam, preset, ok := strings.Cut(q, ":"); ok {
		f, err := r.Family(fam)
		if err != nil {
			return Family{}, SizePreset{}, err
		}
		p, err := f.Preset(preset)
		if err != nil {
			return Family{}, SizePreset{}, err
		}
		return f, p, nil
	}
	if f, err := r.Family(q); err == nil {
		return f, f.Presets[0], nil
	}
	// Bare preset alias: unique across every family.
	type hit struct {
		f Family
		p SizePreset
	}
	var hits []hit
	for _, f := range r.Families() {
		for _, p := range f.Presets {
			if strings.EqualFold(p.Name, q) {
				hits = append(hits, hit{f, p})
			}
		}
	}
	switch len(hits) {
	case 1:
		return hits[0].f, hits[0].p, nil
	case 0:
		return Family{}, SizePreset{}, fmt.Errorf("scenario: unknown workload %q%s", name, suggest(name, r.WorkloadNames()))
	default:
		quals := make([]string, len(hits))
		for i, h := range hits {
			quals[i] = h.f.Name + ":" + h.p.Name
		}
		return Family{}, SizePreset{}, fmt.Errorf("scenario: workload %q is ambiguous (use one of %s)", name, strings.Join(quals, ", "))
	}
}

// Scenario is a fully resolved (platform, workload) pair: everything a
// tuner, report suite or serving job needs to run.
type Scenario struct {
	Platform PlatformSpec
	Family   Family
	Preset   SizePreset
	Workload offload.Workload
	Schema   *space.Schema
	// Graph is the task graph of a DAG scenario; nil for divisible
	// scenarios.
	Graph *graph.Workload
}

// IsDAG reports whether the scenario's workload is a task graph.
func (s Scenario) IsDAG() bool { return s.Family.IsDAG() }

// TrainingPlan derives the scenario's model-training grid.
func (s Scenario) TrainingPlan() core.TrainingPlan {
	return s.Platform.TrainingPlan(s.Family)
}

// DAGSim builds the scenario's list-scheduling simulator; it fails for
// divisible scenarios.
func (s Scenario) DAGSim() (*graph.Sim, error) {
	if s.Graph == nil {
		return nil, fmt.Errorf("scenario: %s is not a DAG scenario", s.Workload.Name)
	}
	return s.Platform.DAGSim(*s.Graph)
}

// Lookup resolves a platform name and a workload name into a runnable
// scenario — the single resolution path shared by the CLIs, the
// experiment suite and the serving layer.
func (r *Registry) Lookup(platformName, workloadName string) (Scenario, error) {
	spec, err := r.Platform(platformName)
	if err != nil {
		return Scenario{}, err
	}
	fam, preset, err := r.Resolve(workloadName)
	if err != nil {
		return Scenario{}, err
	}
	schema, err := spec.Schema()
	if err != nil {
		return Scenario{}, err
	}
	return Scenario{
		Platform: spec,
		Family:   fam,
		Preset:   preset,
		Workload: fam.workload(preset),
		Schema:   schema,
		Graph:    preset.Graph,
	}, nil
}

// ResolveWorkload resolves a workload name into the runnable workload.
func (r *Registry) ResolveWorkload(name string) (offload.Workload, error) {
	f, p, err := r.Resolve(name)
	if err != nil {
		return offload.Workload{}, err
	}
	return f.workload(p), nil
}

// CanonicalWorkloadName resolves a workload name into its canonical
// lowercase "family:preset" form — the form the serving layer keys its
// warm-start store with.
func (r *Registry) CanonicalWorkloadName(name string) (string, error) {
	f, p, err := r.Resolve(name)
	if err != nil {
		return "", err
	}
	return p.Qualified(f), nil
}

// WorkloadNames lists every resolvable workload name: each family, each
// qualified "family:preset", and each bare preset name that is unique
// across the registry, sorted.
func (r *Registry) WorkloadNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	counts := map[string]int{}
	for _, k := range r.famOrder {
		for _, p := range r.families[k].Presets {
			counts[strings.ToLower(p.Name)]++
		}
	}
	var names []string
	for _, k := range r.famOrder {
		f := r.families[k]
		names = append(names, strings.ToLower(f.Name))
		for _, p := range f.Presets {
			names = append(names, strings.ToLower(f.Name)+":"+strings.ToLower(p.Name))
			bare := strings.ToLower(p.Name)
			if counts[bare] == 1 && r.families[bare].Name == "" {
				names = append(names, bare)
			}
		}
	}
	sort.Strings(names)
	return names
}

// PlatformNames lists the registered platform names, sorted.
func (r *Registry) PlatformNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := append([]string(nil), r.platOrder...)
	sort.Strings(names)
	return names
}

// suggest renders the did-you-mean tail of an unknown-name error: the
// closest valid name (when one is close enough) plus the full valid
// list, so the error is actionable without consulting documentation.
func suggest(got string, valid []string) string {
	if len(valid) == 0 {
		return " (nothing registered)"
	}
	sorted := append([]string(nil), valid...)
	sort.Strings(sorted)
	list := strings.Join(sorted, ", ")
	got = strings.ToLower(strings.TrimSpace(got))
	best, bestDist := "", 1<<30
	for _, v := range sorted {
		d := editDistance(got, strings.ToLower(v))
		if d < bestDist {
			best, bestDist = v, d
		}
	}
	// A suggestion is only helpful when the typo is small relative to
	// the name.
	if best != "" && bestDist <= 1+len(best)/3 {
		return fmt.Sprintf(" (did you mean %q? valid: %s)", best, list)
	}
	return fmt.Sprintf(" (valid: %s)", list)
}

// editDistance is the Levenshtein distance between two short names.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	curr := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			curr[j] = min(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(b)]
}
