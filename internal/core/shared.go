package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"hetopt/internal/offload"
	"hetopt/internal/perf"
	"hetopt/internal/search"
	"hetopt/internal/space"
)

// SharedMeasurements is the one memo of measurements shared by every
// run over one workload on one platform and schema: the serving
// layer's concurrent jobs, a refinement's workers, an experiment's
// strategies and objectives. Each configuration of the schema is
// measured through a level table, once unless two runs miss on it at
// the same moment, and every run that visits it afterwards replays
// that measurement. Measurements are pure
// functions of the configuration, so sharing changes no value, only
// how often the experiment physically runs.
//
// The memo is keyed by configuration ordinal and sharded 16 ways. A
// shard starts as a hash table of inline slots (40 bytes each, no
// pointers) that grows with the configurations some run visited, so a
// sparsely visited workload holds no flat table of its whole space.
// Once a shard would double to at least its share of the schema,
// ceil(Size/16) slots, it turns into a direct table of exactly that
// share, indexed by ordinal: never larger than the doubling it
// replaced, and a hit on it never probes.
type SharedMeasurements struct {
	platform *offload.Platform
	workload offload.Workload
	schema   *space.Schema
	table    *offload.MeasureTable
	memo     *search.Memo[int32, offload.Measurement]
}

// NewSharedMeasurements returns an empty memo of workload w's
// measurements on platform p over schema. It refuses a schema with
// more configurations than an int32 ordinal addresses, rather than
// aliasing memo keys.
func NewSharedMeasurements(p *offload.Platform, w offload.Workload, schema *space.Schema) (*SharedMeasurements, error) {
	if n := schema.Size(); n > math.MaxInt32 {
		return nil, fmt.Errorf("core: schema has %d configurations, more than the %d a memo ordinal addresses", n, math.MaxInt32)
	}
	return &SharedMeasurements{
		platform: p,
		workload: w,
		schema:   schema,
		table:    p.NewMeasureTable(w, schema),
		memo:     search.NewBoundedMemo[int32, offload.Measurement](16, schema.Size(), hashOrdinal),
	}, nil
}

// hashOrdinal is the memo's hash: its low bits put consecutive
// ordinals on consecutive shards, the memo's multiplicative probe
// spreads each shard's ordinals over a hash table's slots, and as the
// identity on [0, Size) it indexes a direct table.
func hashOrdinal(ord int32) uint64 { return uint64(uint32(ord)) }

// view returns an evaluator that funnels m's measurements through the
// shared memo, for Instance.MeasureCache. It charges m once per
// distinct configuration the view is asked for — whether the memo
// computes the measurement or replays one another run paid, and
// however many of the view's concurrent callers computed it — so
// a run's Experiments is a pure function of the run, not of memo
// warmth or scheduling. A view reused across runs charges a repeated
// configuration only once in total. A replayed failure is not charged:
// the experiment was never run for m. A configuration off the schema's
// grid is measured and charged on every visit, and never shared.
//
// m must measure the memo's own workload on its own platform;
// otherwise view refuses it.
func (s *SharedMeasurements) view(m *Measurer) (*sharedView, error) {
	if m.Platform != s.platform || m.Workload != s.workload {
		return nil, fmt.Errorf("core: measurer of %q on another platform or workload cannot view the shared measurements of %q", m.Workload.Name, s.workload.Name)
	}
	return &sharedView{
		shared:  s,
		meas:    m,
		charged: make([]atomic.Uint64, (s.schema.Size()+63)/64),
	}, nil
}

// Instance returns a run instance over the memo's schema whose fresh
// Measurer measures through a view of the memo. It returns a value, so
// a caller that runs it through &inst keeps it off the heap.
func (s *SharedMeasurements) Instance() Instance {
	m := NewMeasurer(s.platform, s.workload)
	view, _ := s.view(m) // m matches by construction
	return Instance{Schema: s.schema, Measurer: m, MeasureCache: view}
}

// Lookups returns the number of memo lookups so far.
func (s *SharedMeasurements) Lookups() int { return s.memo.Lookups() }

// Unique returns the number of distinct configurations measured.
func (s *SharedMeasurements) Unique() int { return s.memo.Unique() }

// Hits returns the number of lookups the memo answered from a
// measurement already taken.
func (s *SharedMeasurements) Hits() int { return s.memo.Hits() }

// sharedView is one Measurer's window on a SharedMeasurements, and so
// one run's: the bitset over configuration ordinals records which ones
// it has already been charged for, and draws caches the noise draws of
// the measurements it runs. The draws live here, per run, and not per
// table: a table shared by every job of a workload would keep the
// draws of every state any job ever measured.
type sharedView struct {
	shared  *SharedMeasurements
	meas    *Measurer
	charged []atomic.Uint64 // bit ord set once ord has been charged
	draws   atomic.Pointer[perf.Draws]
}

// Evaluate implements Evaluator: a configuration on the schema's grid
// takes the search states' path, one off it is measured directly.
func (v *sharedView) Evaluate(cfg space.Config) (offload.Measurement, error) {
	lv, ord, ok := v.shared.schema.Levels(cfg)
	if !ok {
		return v.meas.Evaluate(cfg)
	}
	return v.measure(ord, &lv)
}

// evaluateState measures a search state: the memo key and charge bit
// are its ordinal, and a memo miss measures its level indices directly.
// An invalid state fails as Schema.Config fails on it.
func (v *sharedView) evaluateState(state []int) (offload.Measurement, error) {
	ord, err := v.shared.schema.Space().Flatten(state)
	if err != nil {
		return offload.Measurement{}, err
	}
	var lv space.Levels
	copy(lv[:], state)
	return v.measure(ord, &lv)
}

// measure is the one path of every measurement of the view: the state
// with ordinal ord and level indices lv, through the shared memo.
func (v *sharedView) measure(ord int, lv *space.Levels) (offload.Measurement, error) {
	computed := false
	m, err := v.shared.memo.Do(int32(ord), func() (offload.Measurement, error) {
		computed = true
		return v.shared.table.MeasureLevels(*lv, v.runDraws())
	})
	if (err == nil || computed) && v.firstVisit(ord) {
		v.meas.Charge()
	}
	return m, err
}

// runDraws returns the run's noise-draw cache, made on its first memo
// miss so a run the memo answers entirely allocates none.
func (v *sharedView) runDraws() *perf.Draws {
	if d := v.draws.Load(); d != nil {
		return d
	}
	v.draws.CompareAndSwap(nil, v.shared.table.NewDraws())
	return v.draws.Load()
}

// firstVisit marks ord visited and reports whether this call was the
// view's first to do so. It loops on CompareAndSwap rather than testing
// the result of atomic.Uint64.Or: go1.24.0 on amd64 miscompiled that
// result here (a caller SIGSEGVed; building with inlining off hid it).
func (v *sharedView) firstVisit(ord int) bool {
	w, bit := &v.charged[ord>>6], uint64(1)<<(ord&63)
	for {
		old := w.Load()
		if old&bit != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|bit) {
			return true
		}
	}
}
