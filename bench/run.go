package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"hetopt/internal/cluster"
	"hetopt/internal/serve"
)

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload.
type report struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Trace      bool             `json:"trace"`
	Correct    bool             `json:"correct"`
	Attempted  int              `json:"attempted"`
	Failed     int              `json:"failed"`
	Metrics    map[string]value `json:"metrics"`
	Info       map[string]value `json:"info"`
	Digest     string           `json:"result_digest"`
	DigestKeys int              `json:"digest_keys"`
	Errors     string           `json:"errors,omitempty"`

	order, infoOrder []string
}

func newReport(w string, seed int64, traced bool) *report {
	return &report{Workload: w, Seed: seed, Trace: traced, Metrics: map[string]value{}, Info: map[string]value{}}
}

func (r *report) metric(name string, v float64) {
	r.Metrics[name] = value{nanToZero(v), unitOf(name)}
	r.order = append(r.order, name)
}

// info records a number printed for people but not part of the
// benchmark's metric set (per-class latencies, counts, quality).
func (r *report) info(name string, v float64, unit string) {
	r.Info[name] = value{nanToZero(v), unit}
	r.infoOrder = append(r.infoOrder, name)
}

// print writes every number as "workload metric value unit".
func (r *report) print(w io.Writer) {
	for _, n := range r.order {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, n, fmtValue(r.Metrics[n].Value), r.Metrics[n].Unit)
	}
	for _, n := range r.infoOrder {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, n, fmtValue(r.Info[n].Value), r.Info[n].Unit)
	}
	fmt.Fprintf(w, "%s result_digest %s over %d keys\n", r.Workload, r.Digest, r.DigestKeys)
	fmt.Fprintf(w, "%s checks attempted=%d failed=%d correct=%v\n", r.Workload, r.Attempted, r.Failed, r.Correct)
	if r.Errors != "" {
		fmt.Fprintf(w, "%s errors %s\n", r.Workload, r.Errors)
	}
}

func fmtValue(v float64) string { return fmt.Sprintf("%.6g", v) }

// finish folds the ledger's verdict into the report; the digest covers
// the given keys.
func (r *report) finish(l *ledger, keys map[string]bool, attempted int) {
	r.Digest, r.DigestKeys = l.digest(keys), len(keys)
	r.Failed, r.Errors = l.failures()
	r.Attempted = attempted
	r.Correct = r.Failed == 0
	r.info("fail_ratio", float64(r.Failed)/float64(max(attempted, 1)), "ratio")
}

// setupDeployment starts fresh nodes with a fresh ledger and runs the
// workload's set-up requests, returning the set-up wall time.
func setupDeployment(w workloadSpec, p *plan, wrap func(http.Handler) http.Handler) (*deployment, *ledger, float64, error) {
	l := newLedger()
	t := time.Now()
	d, err := deploy(w.nodes, wrap)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := setup(d, l, p.setup); err != nil {
		d.close()
		return nil, nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return d, l, time.Since(t).Seconds(), nil
}

func storeCounts(ms []serve.Metrics) (lookups, hits int64) {
	for _, m := range ms {
		lookups += m.Store.Lookups
		hits += m.Store.Hits
	}
	return lookups, hits
}

// maxSetups caps the set-ups of one run: a workload whose set-up takes
// milliseconds repeats it up to this often within sc.setupBudget.
const maxSetups = 50

// runUntraced measures the end-to-end metrics: set-ups on fresh nodes,
// at least sc.setupMin and more while their total stays under
// sc.setupBudget (setup_s is their median); on the last, a warm-up of
// sc.warmup requests, the live heap, then the timed closed loop over the
// rest of the stream.
func runUntraced(w workloadSpec, seed int64, sc scale) (*report, error) {
	p, err := newPlan(w.name, seed, sc)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var d *deployment
	var l *ledger
	var heapBefore uint64
	for total := 0.0; len(setups) < sc.setupMin || (total < sc.setupBudget && len(setups) < maxSetups); {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		heapBefore = liveHeap()
		var s float64
		if d, l, s, err = setupDeployment(w, p, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		total += s
	}
	warm, err := drive(d, l, p.stream, 0, sc.warmup, nil)
	if err != nil {
		d.close()
		return nil, err
	}
	heap := (float64(liveHeap()) - float64(heapBefore)) / (1 << 20)
	from := warm.attempts
	rest := func(i int) (op, error) { return p.stream(from + i) }
	lookups0, hits0 := storeCounts(d.metrics())
	ph, err := drive(d, l, rest, seconds(sc.seconds), sc.minSamples, nil)
	if err != nil {
		d.close()
		return nil, err
	}
	ms := d.metrics()
	if err := d.close(); err != nil {
		return nil, err
	}

	if !(ph.refNS > 0) {
		return nil, fmt.Errorf("the reference kernel could not be timed")
	}
	// Every time is reported at the nominal machine speed (speed.go).
	at := refNominalNS / ph.refNS
	r := newReport(w.name, seed, false)
	rps, cpu := steadyRates(ph)
	p50, tail := classLatencies(r, w, ph.samples, at)
	setupS := median(setups)
	r.metric("setup_s", setupS*at)
	r.metric("throughput_rps", rps/at)
	r.metric("class_p50_ms", p50)
	r.metric("class_p99_ms", tail)
	r.metric("cpu_ms_per_req", cpu*at)
	r.metric("heap_mb", heap)

	r.info("ref_kernel_ns", ph.refNS, "ns")
	r.info("measured.setup_s", setupS, "s")
	r.info("measured.throughput_rps", rps, "req/s")
	r.info("measured.class_p50_ms", p50/at, "ms")
	r.info("measured.class_p99_ms", tail/at, "ms")
	r.info("measured.cpu_ms_per_req", cpu, "ms")
	r.info("setups", float64(len(setups)), "count")
	r.info("requests", float64(ph.attempts), "count")
	r.info("warmup_requests", float64(warm.attempts), "count")
	r.info("pooled_throughput_rps", float64(ph.attempts)/ph.elapsed.Seconds(), "req/s")
	lookups1, hits1 := storeCounts(ms)
	r.info("store_hit_ratio", ratio(hits1-hits0, lookups1-lookups0), "ratio")
	if len(ms) > 1 {
		l.checkCluster(ms)
	}
	// Every run answers the set-up requests and the first warmup +
	// minSamples requests of the list; answer quality and the digest
	// cover exactly those, so they repeat exactly for a seed.
	prefix, err := prefixKeys(p, sc.warmup+sc.minSamples)
	if err != nil {
		return nil, err
	}
	q, err := l.verify(newOracle(), prefix)
	if err != nil {
		return nil, err
	}
	r.info("gap_pct", q.gapPct, "%")
	r.info("experiments_pct", q.experimentsPct, "%")
	r.finish(l, prefix, warm.attempts+ph.attempts+len(p.setup))
	return r, nil
}

// classLatencies adds each request class's median and tail, with its
// sample count, and returns their summaries over the workload: the
// geometric mean of its classes' medians and of its tail classes'
// tails. A class that gets k times faster moves them by the same factor
// whichever class it is and however few requests it has, where one
// median over a mix of fast and slow classes would not move at all.
// Every latency is multiplied by at.
func classLatencies(r *report, w workloadSpec, samples []sample, at float64) (p50, tail float64) {
	var byClass [numClasses][]float64
	for _, s := range samples {
		byClass[s.class] = append(byClass[s.class], float64(s.ns)/1e6*at)
	}
	var sums [numClasses]latencySummary
	for c, xs := range byClass {
		if len(xs) == 0 {
			continue
		}
		s := steadyLatency(xs)
		sums[c] = s
		name := classNames[c]
		r.info(name+"_n", float64(s.N), "count")
		r.info(name+"_p50_ms", s.P50, "ms")
		if s.TailName != "p50" {
			r.info(name+"_"+s.TailName+"_ms", s.Tail, "ms")
		}
	}
	var p50s, tails []float64
	for _, c := range w.classes {
		if sums[c].N > 0 {
			p50s = append(p50s, sums[c].P50)
		}
	}
	for _, c := range w.tails {
		if sums[c].N > 0 {
			tails = append(tails, sums[c].Tail)
			// A full run collects 1,000 answers of every tail class; a
			// shorter one summarizes the highest percentile it supports.
			if sums[c].TailName != "p99" {
				r.info("class_p99_ms_uses_"+classNames[c]+"_"+sums[c].TailName, 1, "flag")
			}
		}
	}
	return geomean(p50s), geomean(tails)
}

// liveHeap is the heap still in use after a full collection.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// replayShare is the share of a traced run's --seconds the library
// replay may use; the two HTTP passes split the rest.
const replayShare = 0.5

// runTraced measures the per-layer metrics in three parts: an untraced
// pass and a traced pass over the same request stream, each on fresh
// nodes (their throughput ratio is the tracing overhead), then the
// library replay of the traced pass's results.
func runTraced(w workloadSpec, seed int64, sc scale, spansPath string) (*report, error) {
	p, err := newPlan(w.name, seed, sc)
	if err != nil {
		return nil, err
	}
	// Each pass needs enough answers for medians, not for a p99.
	pass := seconds(sc.seconds * (1 - replayShare) / 2)
	r := newReport(w.name, seed, true)

	// The tracer's span buffer exists through both passes, so the two
	// run against the same heap size (and so the same GC pacing).
	tr := newTracer(1 << 19)
	d, l0, _, err := setupDeployment(w, p, nil)
	if err != nil {
		return nil, err
	}
	lookups0, hits0 := storeCounts(d.metrics())
	plain, err := drive(d, l0, p.stream, pass, sc.minSamples/10, nil)
	if err != nil {
		d.close()
		return nil, err
	}
	ms0 := d.metrics()
	lookups1, hits1 := storeCounts(ms0)
	if err := d.close(); err != nil {
		return nil, err
	}
	if len(ms0) > 1 {
		l0.checkCluster(ms0)
	}

	d, l, _, err := setupDeployment(w, p, tr.middleware)
	if err != nil {
		return nil, err
	}
	stopSampling := sampleQueues(d)
	traced, err := drive(d, l, p.stream, pass, sc.minSamples/10, tr)
	depth, pendingMax := stopSampling()
	if err != nil {
		d.close()
		return nil, err
	}
	ms := d.metrics()
	if err := d.close(); err != nil {
		return nil, err
	}
	if len(ms) > 1 {
		l.checkCluster(ms)
	}

	handler, transport, byClass := handlerTimes(tr.recorded(), traced.samples)
	r.metric("serve.handler_us_p50", handler)
	r.metric("serve.transport_us_p50", transport)
	norm, peek, lookup, err := layerLoops(l, traced, p.stream, d.urls)
	if err != nil {
		return nil, err
	}
	r.metric("serve.normalize_ns", norm)
	r.metric("serve.store_peek_ns", peek)
	r.metric("serve.store_hit_ratio", ratio(hits1-hits0, lookups1-lookups0))

	or := newOracle()
	rp := newReplayer(tr, or)
	// The replay budget excludes model training, which the first ML
	// request of each (platform, family) pays.
	deadline := time.Now().Add(seconds(sc.seconds * replayShare))
	l.mu.Lock()
	keys := append([]string(nil), l.order...)
	l.mu.Unlock()
	replayed := 0
	for _, k := range keys {
		if time.Now().After(deadline.Add(seconds(rp.trainS))) && replayed > 0 {
			break
		}
		l.mu.Lock()
		s := l.keys[k]
		l.mu.Unlock()
		if err := rp.replay(k, s.req, s.result); err != nil {
			l.failf("%v", err)
		}
		replayed++
	}
	prefix, err := prefixKeys(p, sc.minSamples/10)
	if err != nil {
		return nil, err
	}
	q, err := l.verify(or, prefix)
	if err != nil {
		return nil, err
	}

	r.metric("serve.render_us", median(rp.renderNS)/1e3)
	r.metric("serve.queue_depth_mean", depth)
	r.metric("core.run_ms_p50", median(rp.runMS))
	r.metric("core.self_ms_p50", median(rp.selfMS))
	r.metric("core.evaluations_per_req", float64(rp.evaluations)/float64(max(rp.divisible, 1)))
	r.metric("search.shared_hit_ratio", ratio(rp.charged, rp.charged+rp.physical))
	r.metric("search.job_repeat_ratio", ratio(rp.jobHits, rp.calls))
	r.metric("offload.measures_per_req", float64(rp.physical)/float64(max(rp.divisible, 1)))
	r.metric("offload.measure_ns", float64(rp.physicalNS)/float64(max(rp.physical, 1)))
	r.metric("ml.train_experiments", float64(rp.trainExperiments))
	r.metric("exact.explored_per_proof", float64(rp.explored)/float64(max(len(rp.exactMS), 1)))
	r.metric("exact.pruned_ratio", ratio(rp.pruned, rp.explored+rp.pruned))
	r.metric("graph.evals_per_req", float64(rp.graphEvals)/float64(max(len(rp.graphMS), 1)))
	r.metric("cluster.lookup_ns", lookup)
	forwarded, local, dropped := int64(0), int64(0), int64(0)
	for _, m := range ms {
		if m.Cluster != nil {
			forwarded += m.Cluster.Forwarded
			local += m.Cluster.Local
			dropped += m.Cluster.Replication.Dropped
		}
	}
	r.metric("cluster.forward_share", ratio(forwarded, forwarded+local))
	r.metric("cluster.repl_dropped", float64(dropped))
	r.metric("cluster.repl_pending_max", float64(pendingMax))
	r.metric("runtime.allocs_per_req", float64(plain.mallocs)/float64(plain.attempts))
	r.metric("runtime.bytes_per_req", float64(plain.bytes)/float64(plain.attempts))
	r.metric("runtime.gc_per_kreq", 1000*float64(plain.gcs)/float64(plain.attempts))
	plainRPS := float64(plain.attempts) / plain.elapsed.Seconds()
	tracedRPS := float64(traced.attempts) / traced.elapsed.Seconds()
	r.metric("trace.overhead_pct", 100*(plainRPS-tracedRPS)/plainRPS)
	r.metric("quality.gap_pct", q.gapPct)
	r.metric("quality.experiments_pct", q.experimentsPct)

	r.info("untraced_throughput_rps", plainRPS, "req/s")
	r.info("traced_throughput_rps", tracedRPS, "req/s")
	r.info("ref_kernel_ns", traced.refNS, "ns")
	r.info("replayed", float64(replayed), "count")
	r.info("replay_mismatches", float64(rp.mismatches), "count")
	// Times of layers only some workloads exercise; each is printed
	// where it has samples.
	labels := make([]string, 0, len(rp.methodMS))
	for m := range rp.methodMS {
		labels = append(labels, m)
	}
	sort.Strings(labels)
	for _, m := range labels {
		r.info("core.run_ms_p50."+m, median(rp.methodMS[m]), "ms")
	}
	if len(rp.exactMS) > 0 {
		r.info("exact.solves", float64(len(rp.exactMS)), "count")
		r.info("exact.run_ms_p50", median(rp.exactMS), "ms")
		r.info("exact.ns_per_node", float64(rp.exactNS)/float64(max(rp.explored, 1)), "ns")
	}
	if len(rp.graphMS) > 0 {
		r.info("graph.tune_ms_p50", median(rp.graphMS), "ms")
	}
	if rp.trainS > 0 {
		r.info("ml.train_s", rp.trainS, "s")
	}
	var cold []float64
	for _, c := range []uint8{classCold, classProof, classPlacement} {
		cold = append(cold, byClass[c]...)
	}
	if len(cold) > 0 {
		r.info("serve.cold_handler_ms_p50", median(cold)/1e3, "ms")
	}
	if len(ms) > 1 {
		clusterHop(r, traced.samples, p.stream, d.urls)
		if len(byClass[classBatch]) > 0 {
			r.info("cluster.scatter_ms_p50", median(byClass[classBatch])/1e3, "ms")
		}
	}
	selfTimeLines(r, tr.recorded())
	r.info("spans", float64(len(tr.recorded())), "count")
	r.info("spans_dropped", float64(tr.dropped.Load()), "count")
	if spansPath != "" {
		if err := tr.writeSpans(spansPath); err != nil {
			return nil, err
		}
	}
	// l0's checks count too: both passes answered real requests.
	l.mu.Lock()
	n0, e0 := l0.failures()
	l.failed += n0
	if e0 != "" {
		l.errs = append(l.errs, e0)
	}
	l.mu.Unlock()
	r.finish(l, prefix, plain.attempts+traced.attempts+2*len(p.setup))
	return r, nil
}

// handlerTimes pairs client round trips with the handler spans they
// caused: the median handler time, the median of round trip minus
// handler (what net/http and the loopback add), and every handler time
// by request class, all in microseconds.
func handlerTimes(spans []span, samples []sample) (handlerUS, transportUS float64, byClass [numClasses][]float64) {
	class := make(map[uint32]uint8, len(samples))
	for _, s := range samples {
		class[s.span] = s.class
	}
	rtt := map[uint32]int64{}
	for _, s := range spans {
		if s.name == nameClientRTT {
			rtt[s.id] = s.end - s.start
		}
	}
	var hs, ts []float64
	for _, s := range spans {
		if s.name != nameServeHTTP || s.parent == 0 {
			continue
		}
		if c, ok := rtt[s.parent]; ok {
			h := s.end - s.start
			hs = append(hs, float64(h)/1e3)
			ts = append(ts, float64(c-h)/1e3)
			byClass[class[s.parent]] = append(byClass[class[s.parent]], float64(h)/1e3)
		}
	}
	return median(hs), median(ts), byClass
}

// layerLoops times three warm-path calls in tight loops over the traced
// pass's requests (at most 20,000): TuneRequest.Normalize plus
// AppendKey, Store.PeekWarm on a benchmark-owned store holding every
// answered key, and Ring.Lookup on a ring of the deployment's peers
// (three placeholder peers for a single node). Each loop runs five
// times; the median round counts.
func layerLoops(l *ledger, ph *phase, stream func(int) (op, error), urls []string) (normNS, peekNS, lookupNS float64, err error) {
	var reqs []serve.TuneRequest
	var keys [][]byte
	for _, s := range ph.samples {
		if len(reqs) == 20000 {
			break
		}
		o, err := stream(int(s.i))
		if err != nil {
			return 0, 0, 0, err
		}
		if o.members != nil {
			continue
		}
		var raw serve.TuneRequest
		if err := json.Unmarshal(o.body, &raw); err != nil {
			return 0, 0, 0, err
		}
		reqs = append(reqs, raw)
		keys = append(keys, []byte(o.key))
	}
	if len(reqs) == 0 {
		return 0, 0, 0, fmt.Errorf("no job requests to time")
	}
	timeLoop := func(fn func(i int)) float64 {
		rounds := make([]float64, 5)
		for round := range rounds {
			t := time.Now()
			for i := range reqs {
				fn(i)
			}
			rounds[round] = float64(time.Since(t)) / float64(len(reqs))
		}
		return median(rounds)
	}
	var buf []byte
	normNS = timeLoop(func(i int) {
		n, err := reqs[i].Normalize()
		if err == nil {
			buf = n.AppendKey(buf[:0])
		}
	})
	store := serve.NewStore(0)
	l.mu.Lock()
	for k, s := range l.keys {
		var res serve.TuneResult
		if err := json.Unmarshal(s.result, &res); err != nil {
			l.mu.Unlock()
			return 0, 0, 0, err
		}
		store.Install(k, res, s.result)
	}
	l.mu.Unlock()
	peekNS = timeLoop(func(i int) { store.PeekWarm(keys[i]) })
	peers := urls
	if len(peers) < 2 {
		peers = []string{"http://127.0.0.1:1", "http://127.0.0.1:2", "http://127.0.0.1:3"}
	}
	ring, err := cluster.New(peers, 0)
	if err != nil {
		return 0, 0, 0, err
	}
	lookupNS = timeLoop(func(i int) { ring.Lookup(keys[i]) })
	return normNS, peekNS, lookupNS, nil
}

// sampleQueues samples the pool queue depth and the replication backlog
// of every node every 5 ms until the returned stop function is called;
// stop returns the mean summed queue depth and the largest summed
// replication backlog seen.
func sampleQueues(d *deployment) (stop func() (meanDepth float64, pendingMax int64)) {
	quit := make(chan struct{})
	done := make(chan struct{})
	var sum, n, maxPending int64
	go func() {
		defer close(done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			depth, pending := int64(0), int64(0)
			for _, m := range d.metrics() {
				depth += m.Queue.Depth
				if m.Cluster != nil {
					pending += m.Cluster.Replication.Pending
				}
			}
			sum += depth
			n++
			maxPending = max(maxPending, pending)
		}
	}()
	stop = func() (float64, int64) {
		close(quit)
		<-done
		if n == 0 {
			return 0, maxPending
		}
		return float64(sum) / float64(n), maxPending
	}
	return stop
}

// clusterHop is the cost of the forwarding hop: the median warm round
// trip sent to a non-owner minus the median sent to the key's owner.
func clusterHop(r *report, samples []sample, stream func(int) (op, error), urls []string) {
	ring, err := cluster.New(urls, 0)
	if err != nil {
		return
	}
	var owner, other []float64
	for _, s := range samples {
		if s.class != classWarm {
			continue
		}
		o, err := stream(int(s.i))
		if err != nil {
			return
		}
		if ring.Owner([]byte(o.key)) == urls[o.node] {
			owner = append(owner, float64(s.ns)/1e3)
		} else {
			other = append(other, float64(s.ns)/1e3)
		}
	}
	if len(owner) > 0 && len(other) > 0 {
		r.info("cluster.hop_us_p50", median(other)-median(owner), "us")
	}
}

// selfTimeLines adds each span name's total self time and median
// duration.
func selfTimeLines(r *report, spans []span) {
	st := selfTimes(spans)
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := st[n]
		r.info("self_ms."+n, float64(s.selfNS)/1e6, "ms")
		r.info("n."+n, float64(s.n), "count")
		r.info("p50_us."+n, median(s.durationsNS)/1e3, "us")
	}
}

// nanToZero keeps a JSON-encodable value for a metric with no sample.
func nanToZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
