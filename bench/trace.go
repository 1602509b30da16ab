package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"hetopt/internal/cluster"
)

// spanHeader carries the client span id to the handler middleware, so
// the client's round trip and the handler's span of one request link.
const spanHeader = "X-Bench-Span"

type spanName uint8

const (
	nameClientRTT spanName = iota
	nameServeHTTP
	nameServeHop // a forwarded request arriving at its owner
	nameReplay
	nameResolve
	nameTrain
	nameCoreRun
	nameGraphTune
	nameExactRun // core.Run or graph.Tune with strategy.Exact
	nameRender
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.rtt", "serve.http", "cluster.hop", "replay.request", "scenario.resolve",
	"ml.train", "core.run", "graph.tune", "exact.run", "serve.render",
}

// span is one timed call at a layer boundary; parent links it to the
// span that caused it (0: a root).
type span struct {
	start, end int64 // ns since the tracer started
	id, parent uint32
	name       spanName
}

// tracer keeps spans in a preallocated in-memory slice; they are
// written out only when the run ends.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint32
	n       atomic.Int64
	spans   []span
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) newID() uint32 { return t.ids.Add(1) }

func (t *tracer) record(name spanName, id, parent uint32, start, end time.Time) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{start: int64(start.Sub(t.t0)), end: int64(end.Sub(t.t0)), id: id, parent: parent, name: name}
}

// recorded returns the spans kept so far.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// middleware times each node's handler from outside Server.ServeHTTP.
func (t *tracer) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 32)
		name := nameServeHTTP
		if r.Header.Get(cluster.ForwardedHeader) != "" {
			name = nameServeHop
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(name, t.newID(), uint32(parent), start, time.Now())
	})
}

// writeSpans writes every kept span as one JSON line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.recorded() {
		fmt.Fprintf(bw, `{"name":%q,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			spanNames[s.name], s.id, s.parent, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfStat aggregates one span name: count, durations and total self
// time (duration minus the part of it child spans cover).
type selfStat struct {
	n           int
	selfNS      int64
	durationsNS []float64
}

// selfTimes computes per-name self time over a span forest.
func selfTimes(spans []span) map[string]*selfStat {
	children := map[uint32][]span{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]*selfStat{}
	for _, s := range spans {
		st := out[spanNames[s.name]]
		if st == nil {
			st = &selfStat{}
			out[spanNames[s.name]] = st
		}
		d := s.end - s.start
		st.n++
		st.selfNS += d - covered(s, children[s.id])
		st.durationsNS = append(st.durationsNS, float64(d))
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}
