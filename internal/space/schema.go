package space

import (
	"fmt"
	"math"
	"slices"

	"hetopt/internal/machine"
)

// Parameter positions inside the heterogeneous schema's index vectors.
const (
	ParamHostThreads = iota
	ParamHostAffinity
	ParamDeviceThreads
	ParamDeviceAffinity
	ParamHostFraction
	numParams
)

// Config is the typed view of one system configuration: the decision
// variables of the paper's optimization problem.
type Config struct {
	// HostThreads and DeviceThreads are the software thread counts.
	HostThreads, DeviceThreads int
	// HostAffinity and DeviceAffinity are the pinning strategies.
	HostAffinity, DeviceAffinity machine.Affinity
	// HostFraction is the percentage of the workload mapped to the host
	// (0-100); the device receives 100 - HostFraction.
	HostFraction float64
}

// DeviceFraction returns the percentage of work mapped to the device.
func (c Config) DeviceFraction() float64 { return 100 - c.HostFraction }

// String renders the configuration the way the paper writes distribution
// ratios, e.g. "60/40 host(24T,scatter) device(120T,balanced)".
func (c Config) String() string {
	return fmt.Sprintf("%g/%g host(%dT,%s) device(%dT,%s)",
		c.HostFraction, c.DeviceFraction(),
		c.HostThreads, c.HostAffinity, c.DeviceThreads, c.DeviceAffinity)
}

// Schema binds the generic Space to the heterogeneous Config view.
type Schema struct {
	space       *Space
	hostThreads []int
	hostAff     []machine.Affinity
	devThreads  []int
	devAff      []machine.Affinity
	fractions   []float64
	// levels maps each parameter's values back to level indices for
	// Levels, in parameter order.
	levels [numParams]levelIndex
}

// SchemaSpec lists the value sets of a heterogeneous schema.
type SchemaSpec struct {
	HostThreads      []int
	HostAffinities   []machine.Affinity
	DeviceThreads    []int
	DeviceAffinities []machine.Affinity
	// Fractions holds the host workload percentages (0-100).
	Fractions []float64
}

// NewSchema builds a Schema from explicit value sets.
func NewSchema(spec SchemaSpec) (*Schema, error) {
	if len(spec.HostThreads) == 0 || len(spec.DeviceThreads) == 0 ||
		len(spec.HostAffinities) == 0 || len(spec.DeviceAffinities) == 0 ||
		len(spec.Fractions) == 0 {
		return nil, fmt.Errorf("space: schema spec has an empty value set")
	}
	for _, f := range spec.Fractions {
		if f < 0 || f > 100 {
			return nil, fmt.Errorf("space: fraction %g outside [0,100]", f)
		}
	}
	toF := func(xs []int) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x)
		}
		return out
	}
	affParam := func(name string, affs []machine.Affinity) Param {
		vals := make([]float64, len(affs))
		labels := make([]string, len(affs))
		for i, a := range affs {
			vals[i] = float64(a)
			labels[i] = a.String()
		}
		return Param{Name: name, Kind: Categorical, Values: vals, Labels: labels}
	}
	sp, err := New(
		Param{Name: "host-threads", Kind: Ordered, Values: toF(spec.HostThreads)},
		affParam("host-affinity", spec.HostAffinities),
		Param{Name: "device-threads", Kind: Ordered, Values: toF(spec.DeviceThreads)},
		affParam("device-affinity", spec.DeviceAffinities),
		Param{Name: "host-fraction", Kind: Ordered, Values: append([]float64(nil), spec.Fractions...)},
	)
	if err != nil {
		return nil, err
	}
	sc := &Schema{
		space:       sp,
		hostThreads: append([]int(nil), spec.HostThreads...),
		hostAff:     append([]machine.Affinity(nil), spec.HostAffinities...),
		devThreads:  append([]int(nil), spec.DeviceThreads...),
		devAff:      append([]machine.Affinity(nil), spec.DeviceAffinities...),
		fractions:   append([]float64(nil), spec.Fractions...),
	}
	for i := range sc.levels {
		sc.levels[i] = newLevelIndex(sp.Params[i].Values)
	}
	return sc, nil
}

// levelTableMax caps a levelIndex's direct table; value sets that only
// fit a larger grid fall back to a map.
const levelTableMax = 4096

// levelTableScales are the grid scales newLevelIndex tries, finest
// last: integer levels fit scale 1, the paper's 2.5% fraction grid
// scale 2.
var levelTableScales = [...]float64{1, 2, 4, 10}

// levelIndex is the inverse of one parameter's value list: a direct
// table indexed by value*scale when every value lands on a small
// non-negative integer grid, a map otherwise. Neither path scans.
type levelIndex struct {
	values []float64
	scale  float64
	table  []int32 // level+1 at value*scale; 0 marks no level
	byVal  map[float64]int
}

func newLevelIndex(values []float64) levelIndex {
	li := levelIndex{values: values}
	for _, scale := range levelTableScales {
		if table, ok := levelTable(values, scale); ok {
			li.scale, li.table = scale, table
			return li
		}
	}
	li.byVal = make(map[float64]int, len(values))
	for l, v := range values {
		li.byVal[v] = l
	}
	return li
}

// levelTable builds the direct table of values on the grid of step
// 1/scale; ok is false when some value is off that grid, out of the
// table's range, or shares a slot with another.
func levelTable(values []float64, scale float64) (table []int32, ok bool) {
	top := 0.0
	for _, v := range values {
		x := v * scale
		if !(x >= 0 && x < levelTableMax) || x != math.Trunc(x) {
			return nil, false
		}
		top = max(top, x)
	}
	table = make([]int32, int(top)+1)
	for l, v := range values {
		x := int(v * scale)
		if table[x] != 0 {
			return nil, false
		}
		table[x] = int32(l + 1)
	}
	return table, true
}

// level returns the level whose value equals v exactly.
func (li *levelIndex) level(v float64) (int, bool) {
	if li.table == nil {
		l, ok := li.byVal[v]
		return l, ok
	}
	x := v * li.scale
	if !(x >= 0 && x < float64(len(li.table))) {
		return 0, false
	}
	i := int(x)
	if float64(i) != x {
		return 0, false
	}
	// The scaled grid can round a nearby off-grid value onto a level;
	// the exact comparison keeps Levels in step with Index.
	l := int(li.table[i]) - 1
	return l, l >= 0 && li.values[l] == v
}

// PaperSpec returns the evaluation configuration space of Section IV-A:
// host threads {2,6,12,24,36,48}, device threads
// {2,4,8,16,30,60,120,180,240}, the three affinities per side, and the
// DNA-fraction grid in 2.5% steps (41 values, 0-100). Its size is
// 6*3*9*3*41 = 19,926, matching the paper's enumeration experiment count.
func PaperSpec() SchemaSpec {
	fractions := make([]float64, 0, 41)
	for f := 0.0; f <= 100; f += 2.5 {
		fractions = append(fractions, f)
	}
	return SchemaSpec{
		HostThreads:      []int{2, 6, 12, 24, 36, 48},
		HostAffinities:   []machine.Affinity{machine.AffinityNone, machine.AffinityScatter, machine.AffinityCompact},
		DeviceThreads:    []int{2, 4, 8, 16, 30, 60, 120, 180, 240},
		DeviceAffinities: []machine.Affinity{machine.AffinityBalanced, machine.AffinityScatter, machine.AffinityCompact},
		Fractions:        fractions,
	}
}

// Table1Spec returns the full Table I space, whose host thread set also
// includes 4 and whose fraction grid is every integer percentage 0-100.
func Table1Spec() SchemaSpec {
	fractions := make([]float64, 101)
	for i := range fractions {
		fractions[i] = float64(i)
	}
	spec := PaperSpec()
	spec.HostThreads = []int{2, 4, 6, 12, 24, 36, 48}
	spec.Fractions = fractions
	return spec
}

// PaperSchema returns the schema for PaperSpec; it panics only on
// programmer error (the spec is statically valid).
func PaperSchema() *Schema {
	sc, err := NewSchema(PaperSpec())
	if err != nil {
		panic(err)
	}
	return sc
}

// Space exposes the underlying generic space.
func (sc *Schema) Space() *Space { return sc.space }

// Size returns the number of configurations.
func (sc *Schema) Size() int { return sc.space.Size() }

// Config decodes an index vector into the typed view.
func (sc *Schema) Config(idx []int) (Config, error) {
	if err := sc.space.ValidateIndex(idx); err != nil {
		return Config{}, err
	}
	return Config{
		HostThreads:    sc.hostThreads[idx[ParamHostThreads]],
		HostAffinity:   sc.hostAff[idx[ParamHostAffinity]],
		DeviceThreads:  sc.devThreads[idx[ParamDeviceThreads]],
		DeviceAffinity: sc.devAff[idx[ParamDeviceAffinity]],
		HostFraction:   sc.fractions[idx[ParamHostFraction]],
	}, nil
}

// Index encodes a typed configuration back into an index vector. Every
// field must be one of the schema's levels.
func (sc *Schema) Index(cfg Config) ([]int, error) {
	idx := make([]int, numParams)
	find := func(name string, want float64, values []float64) (int, error) {
		for i, v := range values {
			if v == want {
				return i, nil
			}
		}
		return 0, fmt.Errorf("space: %s value %g not in schema", name, want)
	}
	var err error
	if idx[ParamHostThreads], err = find("host-threads", float64(cfg.HostThreads), sc.space.Params[ParamHostThreads].Values); err != nil {
		return nil, err
	}
	if idx[ParamHostAffinity], err = find("host-affinity", float64(cfg.HostAffinity), sc.space.Params[ParamHostAffinity].Values); err != nil {
		return nil, err
	}
	if idx[ParamDeviceThreads], err = find("device-threads", float64(cfg.DeviceThreads), sc.space.Params[ParamDeviceThreads].Values); err != nil {
		return nil, err
	}
	if idx[ParamDeviceAffinity], err = find("device-affinity", float64(cfg.DeviceAffinity), sc.space.Params[ParamDeviceAffinity].Values); err != nil {
		return nil, err
	}
	if idx[ParamHostFraction], err = find("host-fraction", cfg.HostFraction, sc.space.Params[ParamHostFraction].Values); err != nil {
		return nil, err
	}
	return idx, nil
}

// Levels is a configuration's level index per parameter, in parameter
// order: a Space index vector of the schema held in an array.
type Levels [numParams]int

// Levels returns a configuration's level indices — the values
// Index(cfg) gives — and its mixed-radix ordinal, the value
// Space().Flatten gives them, without allocating: each field is mapped
// to its level by a lookup table, not a scan. ok is false when any
// field is not one of the schema's levels.
func (sc *Schema) Levels(cfg Config) (lv Levels, ord int, ok bool) {
	fields := [numParams]float64{
		ParamHostThreads:    float64(cfg.HostThreads),
		ParamHostAffinity:   float64(cfg.HostAffinity),
		ParamDeviceThreads:  float64(cfg.DeviceThreads),
		ParamDeviceAffinity: float64(cfg.DeviceAffinity),
		ParamHostFraction:   cfg.HostFraction,
	}
	for i := range fields {
		l, ok := sc.levels[i].level(fields[i])
		if !ok {
			return Levels{}, 0, false
		}
		lv[i] = l
		ord = ord*len(sc.levels[i].values) + l
	}
	return lv, ord, true
}

// Values returns the schema's value lists without copying them: the
// slices are the schema's own, capped at their length, and must not be
// written through.
func (sc *Schema) Values() SchemaSpec {
	return SchemaSpec{
		HostThreads:      slices.Clip(sc.hostThreads),
		HostAffinities:   slices.Clip(sc.hostAff),
		DeviceThreads:    slices.Clip(sc.devThreads),
		DeviceAffinities: slices.Clip(sc.devAff),
		Fractions:        slices.Clip(sc.fractions),
	}
}
