package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hetopt/internal/cluster"
	"hetopt/internal/serve"
)

// Load shape: two client goroutines (nproc on the reference box), each
// a closed loop with no think time. A tuning client — a job launcher —
// blocks on the configuration before it starts its application, so it
// never has a second request in flight.
const clients = 2

// deployment is one or more real serve.Servers behind loopback
// listeners in this process.
type deployment struct {
	servers    []*serve.Server
	urls       []string
	https      []*http.Server
	done       sync.WaitGroup
	goroutines int // before the nodes started
}

// deploy starts n nodes (n > 1 forms a replicated cluster). wrap, when
// set, wraps each node's handler (the traced run's middleware).
func deploy(n int, wrap func(http.Handler) http.Handler) (*deployment, error) {
	d := &deployment{goroutines: runtime.NumGoroutine()}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		d.urls = append(d.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		// Every node: two pool workers, a 64-slot queue, sequential
		// search per job.
		opt := serve.Options{Workers: 2, QueueSize: 64}
		if n > 1 {
			opt.Cluster = &serve.ClusterOptions{NodeID: d.urls[i], Peers: d.urls, Replicate: true}
		}
		s, err := serve.NewCluster(opt)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			d.close()
			return nil, err
		}
		var h http.Handler = s
		if wrap != nil {
			h = wrap(h)
		}
		hs := &http.Server{Handler: h}
		d.servers = append(d.servers, s)
		d.https = append(d.https, hs)
		d.done.Add(1)
		go func() {
			defer d.done.Done()
			_ = hs.Serve(ln) // returns ErrServerClosed once close shuts it down
		}()
	}
	return d, nil
}

// close drains every node's accepted jobs and replication while the
// peers still listen, then closes the listeners and connections and
// waits for the serving goroutines to exit. Every client request has
// been answered by then; a graceful Shutdown would instead wait up to
// five seconds on connections a peer's transport dialed but never used.
func (d *deployment) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var errs []error
	for _, s := range d.servers {
		errs = append(errs, s.Drain(ctx))
	}
	for _, hs := range d.https {
		errs = append(errs, hs.Close())
	}
	d.done.Wait()
	// Connection goroutines of the nodes' peer transports exit once they
	// see their connections closed; wait for them, so nothing of these
	// nodes outlives close (and the next heap reading does not count it).
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > d.goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return errors.Join(errs...)
}

func (d *deployment) metrics() []serve.Metrics {
	ms := make([]serve.Metrics, len(d.servers))
	for i, s := range d.servers {
		ms[i] = s.Metrics()
	}
	return ms
}

// client is one closed-loop client with its own keep-alive connection
// to each node.
type client struct {
	tr  *http.Transport
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

// post sends one request and returns the status and the body, which
// stays valid until the next post on this client.
func (c *client) post(url string, body []byte, span uint32) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if span != 0 {
		req.Header.Set(spanHeader, fmt.Sprint(span))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// send posts op o to its node and checks the answer into l.
func (c *client) send(d *deployment, l *ledger, o op, span uint32) (ok bool, err error) {
	base := d.urls[o.node%len(d.urls)]
	if o.members != nil {
		code, body, err := c.post(base+"/v1/jobs:batch", o.body, span)
		if err != nil {
			return false, err
		}
		return l.observeBatch(o, code, body), nil
	}
	code, body, err := c.post(base+"/v1/jobs?wait=1", o.body, span)
	if err != nil {
		return false, err
	}
	return l.observeJob(o, code, body), nil
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// sample is one answered request of the timed phase.
type sample struct {
	i     int32  // stream index
	span  uint32 // client span id in a traced pass, else 0
	class uint8
	ok    bool
	ns    int64 // round-trip time
}

// phase is the outcome of one closed-loop pass over a request stream.
type phase struct {
	samples  []sample
	elapsed  time.Duration
	cpu      time.Duration // process user+sys time during the pass
	mallocs  uint64
	bytes    uint64
	gcs      uint32
	attempts int
	failed   int
	marks    []mark  // taken every window
	refNS    float64 // median reference kernel time over the pass; NaN if unsampled
}

// mark is the running state of a pass at one window boundary.
type mark struct {
	at       time.Duration
	cpu      time.Duration
	answered int64
}

// window is the length of the slices a timed phase is cut into: the
// end-to-end rates are medians over windows, so a burst of outside load
// on a shared machine moves one window, not the run.
const window = time.Second

// drive runs the closed loop: the clients take stream indices in order
// from one counter until the time is up and at least minSamples answers
// arrived; every request sent is waited for, so exactly the prefix
// [0, attempts) of the stream was served. tr, when set, records client
// spans.
func drive(d *deployment, l *ledger, stream func(int) (op, error), dur time.Duration, minSamples int, tr *tracer) (*phase, error) {
	var next, answered atomic.Int64
	var stop atomic.Bool
	per := make([][]sample, clients)
	errs := make([]error, clients)
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = newClient()
		defer cls[i].close()
	}
	probe, err := newSpeedProbe()
	if err != nil {
		return nil, err
	}
	defer probe.close()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	t0 := time.Now()
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	var marks []mark
	var refs []float64
	refOK := true
	quit, marked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(marked)
		tick := time.NewTicker(window)
		defer tick.Stop()
		ref := time.NewTicker(refPeriod)
		defer ref.Stop()
		sampleRef := func() {
			xs := probe.sample(refBatch)
			refOK = refOK && xs != nil
			refs = append(refs, xs...)
		}
		sampleRef()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				marks = append(marks, mark{at: time.Since(t0), cpu: cpuTime() - cpu0, answered: answered.Load()})
			case <-ref.C:
				sampleRef()
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := cls[c]
			for !stop.Load() || answered.Load() < int64(minSamples) {
				i := int(next.Add(1) - 1)
				o, err := stream(i)
				if errors.Is(err, errStreamEnd) {
					return
				}
				if err != nil {
					errs[c] = err
					stop.Store(true)
					return
				}
				var span uint32
				if tr != nil {
					span = tr.newID()
				}
				start := time.Now()
				ok, err := cl.send(d, l, o, span)
				end := time.Now()
				if err != nil {
					l.failf("request %d: %v", i, err)
				}
				if tr != nil {
					tr.record(nameClientRTT, span, 0, start, end)
				}
				per[c] = append(per[c], sample{i: int32(i), span: span, class: o.class, ok: ok && err == nil, ns: int64(end.Sub(start))})
				answered.Add(1)
			}
		}(c)
	}
	wg.Wait()
	close(quit)
	<-marked
	p := &phase{elapsed: time.Since(t0), cpu: cpuTime() - cpu0, marks: marks, refNS: math.NaN()}
	if refOK {
		p.refNS = median(refs)
	}
	runtime.ReadMemStats(&ms1)
	p.mallocs, p.bytes, p.gcs = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	sort.Slice(p.samples, func(a, b int) bool { return p.samples[a].i < p.samples[b].i })
	p.attempts = len(p.samples)
	for _, s := range p.samples {
		if !s.ok {
			p.failed++
		}
	}
	return p, nil
}

// setup sends the set-up requests through both clients (each waits for
// its answer) and, on a cluster, waits until every completed entry has
// been replicated to its follower.
func setup(d *deployment, l *ledger, ops []op) error {
	if len(ops) > 0 {
		p, err := drive(d, l, func(i int) (op, error) {
			if i >= len(ops) {
				return op{}, errStreamEnd
			}
			return ops[i], nil
		}, 0, len(ops), nil)
		if err != nil {
			return err
		}
		if p.failed > 0 {
			return fmt.Errorf("%d set-up requests failed", p.failed)
		}
	}
	if len(d.servers) < 2 {
		return nil
	}
	// Each computed key is replicated once, from its owner to its
	// follower; set-up ends when every delivery has been made.
	ring, err := cluster.New(d.urls, 0)
	if err != nil {
		return err
	}
	want := int64(0)
	for _, o := range ops {
		if owner, follower := ring.Lookup([]byte(o.key)); follower != owner {
			want++
		}
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		got := int64(0)
		for _, m := range d.metrics() {
			r := m.Cluster.Replication
			got += r.Sent + r.Failed + r.Dropped
		}
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication of set-up keys stalled at %d of %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// errStreamEnd ends a finite stream (the set-up requests).
var errStreamEnd = errors.New("end of request stream")

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
